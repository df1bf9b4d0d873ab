"""Step-size limit of the flow engine, kept apart from numpy so that the CLI
can print it in its help without loading the engine."""

#: the largest step; backward Euler lags on the slow mode (e-folding time
#: about 5), so at a cap of 4 the slowest solves only just converge by t = 100
DT_CAP = 2.0

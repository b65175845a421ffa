"""Twin-experiment benchmark for shockda: timed repetitions, output checks and layer spans."""

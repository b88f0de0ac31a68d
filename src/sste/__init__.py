"""Self-sampling training and evaluation for popularity-debiased recommendation."""

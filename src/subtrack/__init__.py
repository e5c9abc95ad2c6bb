"""Unsupervised tracklet pseudo-label refinement pipeline."""

"""Transductive node classification comparing independent cross-entropy
against joint-cluster training with marginalized inference."""

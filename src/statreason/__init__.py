"""Statutory reasoning over Horn-clause statute annotations."""

#!/usr/bin/env python3
"""Exhaustive small-scale verification suites (representation bound,
mixing identities, and the histogram decision bands of uniformity and of
bounded support size at every N <= 6, G <= 16 and five values of tau)."""
import sys

from vdo.cli import main

if __name__ == "__main__":
    sys.exit(main(["--mode", "brute-force", "--out", "brute_force_report.txt"]
                  + sys.argv[1:]))

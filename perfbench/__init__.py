"""End-to-end benchmark of the finring command line.

`python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`
drives `finring.cli.main` in-process on seeded inputs, checks every output
against an oracle and prints one JSON result line.  See perfbench/README.md.
"""

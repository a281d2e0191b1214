#!/usr/bin/env python3
"""Regenerate the paper's feasibility tables (Tables I-III) as text.

Probes each simulated CDN with the ABNF-generated range corpus, diffs
what the client sent against what the origin received, and classifies
every vendor's forwarding and replying policies — the paper's first
experiment.

Usage::

    python examples/feasibility_survey.py
"""

from repro.core.feasibility import survey
from repro.reporting.render import render_table
from repro.reporting.tables import survey_tables


def main() -> None:
    print("Probing all 13 vendors with the generated range corpus...\n")
    feasibility = survey(file_size=16 * 1024)

    for _stem, title, headers, rows in survey_tables(feasibility):
        print(f"{title}\n{render_table(headers, rows)}\n")

    conditional = sorted(
        name for name, verdict in feasibility.items() if verdict.obr_fcdn_conditional
    )
    if conditional:
        print(f"(*) Table II laziness only behind a bypass rule: {', '.join(conditional)}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Render the paper's figure series from the pinned campaign CSVs.

Usage:
  paper_tables.py                 print the markdown tables to stdout
  paper_tables.py --update FILE   replace the block between the
                                  <!-- paper-tables:begin --> and
                                  <!-- paper-tables:end --> markers in FILE

Reads examples/paper/*.csv (written by `pas-exp --manifest
examples/paper/<name>.json --out examples/paper/<name>.csv`) and prints
Figs 4-7, the Table 1 policy rows and ablations A2/A3/A5 as markdown.
EXPERIMENTS.md embeds the output; the CI `docs` job runs `--update` on it
and fails on any diff, so the numbers there are the pinned ones.

Stdlib only.
"""

import csv
import pathlib
import sys

PAPER = pathlib.Path(__file__).resolve().parent.parent / "examples" / "paper"
BEGIN = "<!-- paper-tables:begin -->"
END = "<!-- paper-tables:end -->"


def rows(name):
    with open(PAPER / f"{name}.csv", newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def num(value, digits=3):
    return f"{float(value):.{digits}f}"


def with_ci(row, mean, ci):
    return f"{num(row[mean])} ± {num(row[ci], 2)}"


def table(header, body):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(cells) + " |" for cells in body]
    return "\n".join(lines)


def pivot(data, row_axis, col_axis, cell):
    """One row per `row_axis` value, one column per `col_axis` value, both
    in manifest (first appearance) order."""
    row_keys = list(dict.fromkeys(r[row_axis] for r in data))
    col_keys = list(dict.fromkeys(r[col_axis] for r in data))
    index = {(r[row_axis], r[col_axis]): r for r in data}
    body = [[rk] + [cell(index[(rk, ck)]) for ck in col_keys]
            for rk in row_keys]
    return col_keys, body


def render():
    out = []
    sleep_cap = rows("sleep_cap")
    cols, body = pivot(sleep_cap, "max_sleep_s", "policy",
                       lambda r: with_ci(r, "delay_mean_s", "delay_ci95_s"))
    out.append("**Fig 4** — detection delay (s, mean ± 95% CI) vs maximum "
               "sleeping interval, T_alert = 20 s "
               "(`examples/paper/sleep_cap.csv`):\n")
    out.append(table(["max_sleep_s"] + cols, body))
    cols, body = pivot(sleep_cap, "max_sleep_s", "policy",
                       lambda r: num(r["energy_mean_j"]))
    out.append("\n**Fig 6** — average per-node energy (J) vs maximum "
               "sleeping interval, T_alert = 20 s (same file):\n")
    out.append(table(["max_sleep_s"] + cols, body))
    out.append("\n**Table 1 policy rows** — the `max_sleep_s = 20` rows "
               "of the same file:\n")
    out.append(table(
        ["policy", "delay_s", "energy_J", "active_fraction", "broadcasts"],
        [[r["policy"], with_ci(r, "delay_mean_s", "delay_ci95_s"),
          num(r["energy_mean_j"]), num(r["active_fraction_mean"]),
          num(r["broadcasts_mean"], 1)]
         for r in sleep_cap if r["max_sleep_s"] == "20"]))

    out.append("\n**Figs 5 and 7** — PAS delay and energy vs the alert "
               "threshold, max sleep 20 s "
               "(`examples/paper/alert_threshold.csv`):\n")
    out.append(table(
        ["alert_threshold_s", "delay_s (Fig 5)", "energy_J (Fig 7)"],
        [[r["alert_threshold_s"], with_ci(r, "delay_mean_s", "delay_ci95_s"),
          num(r["energy_mean_j"])] for r in rows("alert_threshold")]))

    robustness = rows("robustness")
    cols, body = pivot(robustness, "channel_loss", "failure_fraction",
                       lambda r: f'{num(r["delay_mean_s"])} / '
                                 f'{num(r["energy_mean_j"])}')
    out.append("\n**A2 robustness** — PAS delay (s) / energy (J); rows "
               "`channel_loss`, columns `failure_fraction` (failures in "
               "the first 75 s); `missed_mean` is "
               + ("0 on every row" if all(float(r["missed_mean"]) == 0
                                           for r in robustness)
                  else "nonzero on some rows")
               + " (`examples/paper/robustness.csv`):\n")
    out.append(table(["loss \\ failures"] + cols, body))

    cols, body = pivot(rows("stimulus"), "stimulus", "policy",
                       lambda r: f'{with_ci(r, "delay_mean_s", "delay_ci95_s")}'
                                 f' / {num(r["energy_mean_j"])}')
    out.append("\n**A3 stimulus model** — delay (s, mean ± 95% CI) / "
               "energy (J), max sleep 20 s "
               "(`examples/paper/stimulus.csv`):\n")
    out.append(table(["stimulus"] + cols, body))

    ramp = rows("sleep_ramp")
    cols, body = pivot(ramp, "max_sleep_s", "sleep_ramp",
                       lambda r: f'{num(r["delay_mean_s"])} / '
                                 f'{num(r["energy_mean_j"])}')
    out.append("\n**A5 sleep ramp** — PAS delay (s) / energy (J) by ramp "
               "shape (`examples/paper/sleep_ramp.csv`):\n")
    out.append(table(["max_sleep_s"] + cols, body))
    return "\n".join(out) + "\n"


def update(path):
    path = pathlib.Path(path)
    text = path.read_text(encoding="utf-8")
    begin, end = text.find(BEGIN), text.find(END)
    if begin < 0 or end < begin:
        sys.exit(f"{path}: missing {BEGIN} ... {END} markers")
    head = text[:begin + len(BEGIN)]
    path.write_text(head + "\n" + render() + text[end:], encoding="utf-8")


def main(argv):
    if not argv:
        sys.stdout.write(render())
    elif len(argv) == 2 and argv[0] == "--update":
        update(argv[1])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])

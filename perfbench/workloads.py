"""Seeded workload generators for the campaign benchmark.

Each workload is a pas-exp manifest plus the way the campaign is launched.
The manifests are written here, not read from examples/, so a change to a
shipped example cannot silently change what the benchmark measures (or its
committed digests). The seed only sets `seed_base`: the grid shape, and so
the amount of work per launch, is the same for every seed, which keeps the
run-to-run spread down to host noise.
"""

import copy

# The paper's scenario (examples/campaign.json): 30 uniform nodes in 40 m,
# a harmonic radial front and a Gaussian plume from the same corner.
_PAPER_BASE = {
    "duration_s": 150,
    "deployment": {"kind": "uniform", "count": 30, "region_m": 40},
    "radio": {"range_m": 10},
    "stimulus": {
        "kind": "radial",
        "radial": {
            "source": {"x": 3, "y": 3},
            "base_speed_mps": 0.5,
            "start_time_s": 5,
            "max_radius_m": 28,
            "harmonics": [
                {"k": 1, "amplitude": 0.1, "phase": 2.1},
                {"k": 3, "amplitude": 0.12, "phase": 0.7},
            ],
        },
        "plume": {
            "source": {"x": 3, "y": 3},
            "mass": 3000,
            "diffusivity": 1.5,
            "wind": {"x": 0.05, "y": 0.05},
            "threshold": 0.35,
        },
    },
}


def paper_grid(seed):
    return {
        "name": "paper-grid",
        "description": "examples/campaign.json grid: NS/SAS/PAS x radial/plume "
                       "x 6 sleep caps x 3 alert thresholds",
        "replications": 6,
        "seed_base": seed,
        "base": copy.deepcopy(_PAPER_BASE),
        "axes": [
            {"axis": "policy", "values": ["NS", "SAS", "PAS"]},
            {"axis": "stimulus", "values": ["radial", "plume"]},
            {"axis": "max_sleep_s", "values": [5, 10, 15, 20, 30, 40]},
            {"axis": "alert_threshold_s", "values": [10, 20, 30]},
        ],
    }


def multihop_mac(seed):
    return {
        "name": "multihop-mac",
        "description": "examples/multihop_collection.json grid: slotted LPL "
                       "MAC + tree collection on a 7x7 grid",
        "replications": 15,
        "seed_base": seed,
        "base": {
            "duration_s": 150,
            "deployment": {"kind": "grid", "count": 49, "region_m": 80},
            "radio": {"range_m": 14},
            "stimulus": {
                "kind": "radial",
                "radial": {
                    "source": {"x": 4, "y": 4},
                    "base_speed_mps": 1.0,
                    "start_time_s": 5,
                    "max_radius_m": 120,
                    "harmonics": [{"k": 2, "amplitude": 0.08, "phase": 1.3}],
                },
            },
            "mac": {"enabled": True, "slot_period_s": 0.1},
            "collection": {
                "sink_placement": "corner",
                "max_hops": 16,
                "node_queue_limit": 8,
            },
        },
        "axes": [
            {"axis": "policy", "values": ["PAS", "DutyCycle"]},
            {"axis": "slot_period_s", "values": [0.05, 0.1, 0.2]},
        ],
    }


def fleet_drive(seed):
    base = copy.deepcopy(_PAPER_BASE)
    base["duration_s"] = 30
    return {
        "name": "fleet-drive",
        "description": "many tiny points: 5 policies x sleep caps x alert "
                       "thresholds x radio range x Bernoulli loss, 1 rep each",
        "replications": 1,
        "seed_base": seed,
        "base": base,
        "axes": [
            {"axis": "policy",
             "values": ["NS", "SAS", "PAS", "DutyCycle", "ThresholdHold"]},
            {"axis": "max_sleep_s", "values": [5, 10, 15, 20, 25, 30, 35, 40]},
            {"axis": "alert_threshold_s", "values": [10, 15, 20, 25, 30]},
            # 30 nodes in 40 m have no connected deployment at 9 m; every
            # range here keeps the connectivity redraws far from the
            # 64-attempt limit.
            {"axis": "radio_range_m", "values": [10, 12, 14, 16, 18]},
            {"axis": "channel_loss",
             "values": [0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16,
                        0.18, 0.2, 0.22]},
        ],
    }


def rep_study(seed):
    return {
        "name": "rep-study",
        "description": "examples/replication_study.json: one PAS point, "
                       "thousands of replications",
        "replications": 2000,
        "seed_base": seed,
        "base": {
            "duration_s": 150,
            "deployment": {"kind": "uniform", "count": 30, "region_m": 40},
            "radio": {"range_m": 10},
            "protocol": {"policy": "PAS", "sleep_max_s": 20,
                         "alert_threshold_s": 20},
            "stimulus": {
                "kind": "radial",
                "radial": {
                    "source": {"x": 3, "y": 3},
                    "base_speed_mps": 0.5,
                    "start_time_s": 5,
                    "max_radius_m": 28,
                },
            },
        },
    }


# How each workload is launched. `launch` is pas-exp's parallelism flags;
# `replay_jobs` the threads of the traced in-process replay (the --drive
# workload replays serially: the serial Aggregator output is what its merged
# artifacts must equal). No workload uses more than 3 threads or worker
# processes.
WORKLOADS = {
    "paper-grid": {"make": paper_grid, "launch": ["--jobs", "1"],
                   "replay_jobs": 1, "per_run": True},
    "multihop-mac": {"make": multihop_mac, "launch": ["--jobs", "1"],
                     "replay_jobs": 1, "per_run": False},
    "fleet-drive": {"make": fleet_drive, "launch": ["--drive", "3"],
                    "replay_jobs": 1, "per_run": True},
    "rep-study": {"make": rep_study, "launch": ["--jobs", "3"],
                  "replay_jobs": 3, "per_run": True},
}


def point_count(manifest):
    n = 1
    for axis in manifest.get("axes", []):
        n *= len(axis["values"])
    return n


def axis_names(manifest):
    return [axis["axis"] for axis in manifest.get("axes", [])]

# -*- coding: utf-8 -*-
"""`ray job submit` entrypoint: the full lint pass as a cluster job.

    ray job submit --working-dir . -- python scripts/job_entry.py \
        --data /tmp/osmlint_synth/sf0.1 --out /tmp/osmlint_out

Runs the resumable partitioned lint pass (skipping partitions already in
the manifest — safe to re-submit after a failure), writes the HTML report
from the partitioned output, and prints the metrics manifest.  Owns its
Ray session (guarded init: under `ray job submit` the cluster address is
ambient)."""

from __future__ import annotations

import argparse
import json
import os
import sys

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--data", required=True, help="synthetic data dir (sf*)")
    ap.add_argument("--out", required=True, help="output dir (flags+report)")
    ap.add_argument("--report", action="store_true", help="also render HTML")
    args = ap.parse_args()

    import osmlint
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, runtime_env=osmlint.runtime_env())
    try:
        from osmlint import lineage, report
        manifest = lineage.run_resumable(args.data, args.out)
        print(json.dumps({"partitions": len(manifest),
                          "flags": sum(v["flags"] for v in manifest.values()),
                          "errors": sum(v["errors"] for v in manifest.values()),
                          "wall_s": round(sum(v["wall_s"]
                                              for v in manifest.values()), 2)}))
        if args.report:
            import ray.data as rd
            p = os.path.join(args.out, "report.html")
            # render from the partitioned flags run_resumable just wrote:
            # one read of them feeds the report's one bucket pass, with no
            # pipeline re-run and no object-store materialize
            html = report.render_report(
                rd.read_parquet(lineage.partition_files(args.out)))
            with open(p, "w") as f:
                f.write(html)
            print(json.dumps({"report": p}))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()

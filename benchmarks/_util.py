"""Helpers shared by the benchmark modules."""

import json
import os


def show(title: str, body: str) -> None:
    """Print a regenerated table under a banner (visible with ``-s``)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}")


def write_json(env_var: str, report: dict) -> None:
    """Write ``report`` as sorted, indented JSON to the path named by the
    environment variable ``env_var``; do nothing when it is unset."""
    out = os.environ.get(env_var)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

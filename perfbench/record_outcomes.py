"""Record every pool job's outcome into outcomes.json.

    python3 perfbench/record_outcomes.py

Run it at the commit whose CLI output later commits must reproduce byte
for byte.  Each job gets its exit status, its failure reason (null when it
passed) and the sha256 of its expected stdout.  Jobs with a ``math.comb``
closed form expect that output, and may fail with a nonzero exit and an
error message (not a traceback); that failure is then recorded as known.
Every other job must exit 0 and pass its independent check.
"""

import json
import sys

import run
import workloads


def main() -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    outcomes = {}
    for job in workloads.all_jobs():
        result = run.run_process(["-m", "bouncepaths.cli", *job], timeout_s=600)
        expected = workloads.expected_bfile(job) if job[0] == "coeffs" else None
        stdout = result["stdout"] if expected is None else expected
        key = workloads.job_key(job)
        record = {"exit": result["returncode"], "failure": None,
                  "sha256": workloads.digest(stdout)}
        failure, _ = workloads.check_output(
            job, result["returncode"], result["stdout"], result["stderr"], {key: record}
        )
        if failure is not None and (expected is None or not failure.startswith("exit ")):
            print(f"error: {key}: {failure}", file=sys.stderr)
            return 1
        record["failure"] = failure
        print(f"{result['wall_s']:7.3f} s  {failure or 'ok'}  {key}")
        outcomes[key] = record
    workloads.OUTCOMES_FILE.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

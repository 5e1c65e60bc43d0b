"""Serving benchmark: the real ``repro serve`` fleet, driven through its front.

Usage (from the repository root)::

    python3 servebench/run.py --workload lookup-bulk --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same live pass untraced (for the generator diagnostics and the
front-versus-direct comparison) and then a separate traced in-process
replay that yields the per-layer metrics and writes its spans under
``.servebench/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer or a
restore-fingerprint mismatch makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".servebench"

#: Servers started per run to time set-up; the last one is measured.
SETUP_REPEATS = 3


def progress(message: str) -> None:
    """A timestamped progress line on standard error."""
    print(f"[{time.perf_counter() - T0:7.2f}s] {message}", file=sys.stderr)


T0 = time.perf_counter()


class BenchFailure(Exception):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One benchmark invocation: inputs, live server pass, results."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        from workloads import build_inputs

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.inputs = build_inputs(workload, seed, seconds, workdir)
        self.correct = True
        self.attempted = 0
        self.failed = 0
        from drive import UpdateResult

        #: Update-probe parts run on the earlier set-up instances.
        self.early_probe = UpdateResult()

    # -- helpers --------------------------------------------------------

    def fail(self, message: str) -> None:
        self.correct = False
        print(f"WRONG: {message}", file=sys.stderr)

    def spawn(self, journal: Path, restore: bool = False):
        from serverctl import ServerProcess, serve_args

        args = serve_args(
            None if restore else self.inputs.table_path, journal, restore
        )
        return ServerProcess(SRC, args, self.workdir)

    def first_answer(self, server) -> float:
        """Seconds from spawn until one lookup is answered correctly."""
        from drive import Conn
        from workloads import wrong_positions

        port = server.wait_port()
        conn = Conn(port)
        try:
            answers = conn.lookup(self.inputs.batches[0])
            elapsed = time.perf_counter() - server.started
        finally:
            conn.close()
        self.attempted += 1
        if wrong_positions(answers, self.inputs.reference[0]):
            self.failed += 1
            self.fail("first answer after start-up is wrong")
        return elapsed

    # -- phases ---------------------------------------------------------

    def setups(self, repeats: int) -> Tuple[object, List[float]]:
        """Start ``repeats`` fresh servers; keep the last one running.

        Each earlier instance also runs one part of the update probe
        before it drains, so the probe samples the whole run, not one
        moment of it.
        """
        from drive import Conn, closed_loop_updates

        times: List[float] = []
        server = None
        for attempt in range(repeats):
            server = self.spawn(self.workdir / f"journal-{attempt}")
            try:
                times.append(self.first_answer(server))
                if attempt == repeats - 1:
                    break
                conn = Conn(server.port)
                try:
                    closed_loop_updates(
                        conn,
                        self.inputs.early_updates[attempt],
                        self.early_probe,
                    )
                finally:
                    conn.close()
                self.stop(server)
            except BaseException:
                server.kill()
                raise
        assert server is not None
        probe = self.early_probe
        self.attempted += probe.attempted
        self.failed += probe.failed
        return server, times

    @staticmethod
    def stop(server) -> None:
        """Drain (final checkpoint) and require a clean exit."""
        code = server.stop()
        if code != 0:
            raise BenchFailure(f"server drain exited {code}")

    def live_window(self, port: int, trace: bool):
        """The timed window: lookups, plus the update stream on churn.

        Other workloads run a closed-loop update probe alone after the
        window, once any same-run comparison (``trace``) has used the
        table the lookup references were computed on.
        """
        from drive import (
            Conn,
            UpdateResult,
            closed_loop_lookups,
            closed_loop_updates,
            open_loop_updates,
        )
        from repro.serve import protocol
        from workloads import LOOKUP_WARMUP_S, LOOKUP_WINDOW

        inputs = self.inputs
        lookups_conn = Conn(port)
        updates_conn = Conn(port)
        updates = UpdateResult()
        # The inputs are millions of objects; a full collection while the
        # clock runs would stall the generator, so freeze them and keep
        # the collector off until the timed phases are over.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            warmup = closed_loop_lookups(
                lookups_conn,
                inputs.payloads,
                inputs.expected,
                inputs.reference,
                inputs.volatile,
                LOOKUP_WINDOW,
                LOOKUP_WARMUP_S,
            )
            self.attempted += warmup.attempted
            self.failed += warmup.failed
            if warmup.wrong:
                self.fail(f"{warmup.wrong} warm-up lookup answer(s) wrong")
            thread = None
            if self.workload.churn:
                started = time.perf_counter() + 0.05
                thread = threading.Thread(
                    target=open_loop_updates,
                    args=(updates_conn, inputs.updates, started, updates),
                )
                thread.start()
                while time.perf_counter() < started:
                    time.sleep(0.001)
            lookups = closed_loop_lookups(
                lookups_conn,
                inputs.payloads,
                inputs.expected,
                inputs.reference,
                inputs.volatile,
                LOOKUP_WINDOW,
                self.seconds,
                first=warmup.attempted,
            )
            if thread is not None:
                thread.join(self.seconds + 60.0)
                if thread.is_alive():
                    raise BenchFailure("update stream did not finish")
            extra: Dict[str, object] = {}
            if trace:
                from layers import front_versus_direct

                extra = front_versus_direct(self, port)
            if thread is None:
                # The update probe's last part: the durable update path,
                # run alone.
                closed_loop_updates(updates_conn, inputs.updates, updates)
            if updates.error is not None:
                raise BenchFailure(f"update stream failed: {updates.error!r}")
            stats = lookups_conn.admin(protocol.MSG_STATS)
        finally:
            gc.enable()
            lookups_conn.close()
            updates_conn.close()
        self.attempted += lookups.attempted + updates.attempted
        self.failed += lookups.failed + updates.failed
        if lookups.wrong:
            self.fail(f"{lookups.wrong} lookup answer(s) wrong")
        if lookups.lookups == 0 and not lookups.wrong:
            raise BenchFailure("no lookup answered")
        return lookups, updates, stats, extra

    def verify_final_state(self, port: int, updates) -> str:
        """Flush, check the probe set exactly, return the fingerprint."""
        from drive import Conn
        from repro.serve import protocol
        from repro.trie.trie import BinaryTrie
        from workloads import apply_updates, wrong_positions

        conn = Conn(port)
        try:
            conn.admin(protocol.MSG_FLUSH)
            answers = conn.lookup(self.inputs.probe)
            fingerprint = conn.admin(protocol.MSG_FINGERPRINT)["fingerprint"]
        finally:
            conn.close()
        self.attempted += 1
        if updates.failed == 0:
            expected = self.inputs.probe_expected
        else:
            # Only the durably acked updates reached the table.
            trie = BinaryTrie.from_routes(
                apply_updates(self.inputs.routes, updates.acked)
            )
            expected = [trie.lookup(a) for a in self.inputs.probe]
            self.inputs.probe_expected = expected
        wrong = wrong_positions(answers, expected)
        if wrong:
            self.failed += 1
            self.fail(
                f"{len(wrong)} of {len(answers)} probe answers wrong after "
                f"the updates were flushed"
            )
        return fingerprint

    def restore(
        self, journal: Path, fingerprint: str, expected: List[Optional[int]]
    ) -> float:
        """Seconds from spawning ``--restore`` on a drained journal until
        the server reports the pre-stop fingerprint and answers the probe
        set correctly."""
        from drive import Conn
        from repro.serve import protocol
        from workloads import wrong_positions

        server = self.spawn(journal, restore=True)
        try:
            conn = Conn(server.wait_port())
            try:
                # Fingerprint first: lookups reorder DRed content, which
                # the fingerprint covers.  Only the drain's checkpoint
                # holds that content; the journal alone cannot rebuild it.
                restored = conn.admin(protocol.MSG_FINGERPRINT)
                answers = conn.lookup(self.inputs.probe)
            finally:
                conn.close()
            elapsed = time.perf_counter() - server.started
            self.attempted += 1
            if restored["fingerprint"] != fingerprint:
                self.failed += 1
                self.fail("restored fingerprint differs from pre-stop")
            elif wrong_positions(answers, expected):
                self.failed += 1
                self.fail("restored server answers the probe set wrong")
            self.stop(server)
        except BaseException:
            server.kill()
            raise
        return elapsed


def end_to_end(run: Run, setup_times, lookups, updates, rss_mb):
    from drive import metric

    updates = run.early_probe.merged(updates)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "lookup_rate": metric(lookups.sliced_rate(run.seconds), "lookups/s"),
        "lookup_p50_ms": metric(lookups.sliced_percentile(0.50) * 1e3, "ms"),
        "lookup_p90_ms": metric(lookups.sliced_percentile(0.90) * 1e3, "ms"),
        "update_rate": metric(updates.chunked_rate(), "updates/s"),
        "update_ack_p50_ms": metric(
            updates.chunked_percentile(0.50) * 1e3, "ms"
        ),
        "update_ack_p90_ms": metric(
            updates.chunked_percentile(0.90) * 1e3, "ms"
        ),
        "answered_frac": metric(
            (run.attempted - run.failed) / run.attempted, "fraction"
        ),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def live_pass(run: Run, trace: bool):
    """Set-ups, timed window, final-state check, drain, restore."""
    setup_repeats = 1 if trace else SETUP_REPEATS
    server, setup_times = run.setups(setup_repeats)
    progress(f"set-up x{setup_repeats}: {setup_times}")
    try:
        port = server.port
        lookups, updates, stats, extra = run.live_window(port, trace)
        progress("timed window and update stream done")
        per_slice = lookups.slice_percentiles(0.9)
        if per_slice:
            progress(
                f"lookup p90 over {len(per_slice)} slices: "
                f"{min(per_slice) * 1e3:.2f}-{max(per_slice) * 1e3:.2f} ms"
            )
        rss_mb = server.peak_rss_mb()
        fingerprint = run.verify_final_state(port, updates)
        run.stop(server)
        progress("final state checked, server drained")
    except BaseException:
        server.kill()
        raise
    extra["restore_s"] = run.restore(
        run.workdir / f"journal-{setup_repeats - 1}",
        fingerprint,
        run.inputs.probe_expected,
    )
    progress(f"restored in {extra['restore_s']:.3f}s")
    return setup_times, lookups, updates, stats, rss_mb, extra


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: {SRC}/repro not found; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Compile the server's modules once, so no set-up pays for bytecode.
    import repro.cli  # noqa: F401

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, args.seconds, workdir)
        progress("inputs built")
        setup_times, lookups, updates, stats, rss_mb, extra = live_pass(
            run, trace=bool(args.trace)
        )
        if args.trace:
            from layers import layer_metrics

            metrics = layer_metrics(
                run, lookups, updates, stats, extra, OUT, SRC
            )
            progress("traced replay done")
        else:
            metrics = end_to_end(run, setup_times, lookups, updates, rss_mb)
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())

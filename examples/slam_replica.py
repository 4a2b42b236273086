"""Full SLAM on a synthetic Replica-like sequence, sparse vs dense.

Runs the complete tracking+mapping loop twice — once with SPLATONIC's
sparse pixel sampling (the paper's configuration: random one-per-16x16
tracking pixels, 4x4 texture/unseen mapping pixels) and once densely (the
baseline) — and compares trajectory error, reconstruction quality, and
wall-clock.

Run:  python examples/slam_replica.py [--sequence room0] [--frames 12]
"""

import argparse
import time

from repro import SplatonicConfig
from repro.datasets import REPLICA_SEQUENCES, make_replica_sequence
from repro.slam import SLAMSystem


def run(mode: str, sequence, config=None, observers=()):
    start = time.perf_counter()
    result = SLAMSystem("splatam", mode=mode,
                        splatonic_config=config).run(
                            sequence, observers=observers)
    elapsed = time.perf_counter() - start
    ate = result.ate()
    quality = result.eval_quality(sequence)
    return result, ate, quality, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sequence", default="room0",
                        choices=REPLICA_SEQUENCES)
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--height", type=int, default=48)
    parser.add_argument("--tracking-tile", type=int, default=8,
                        help="w_t; the paper uses 16 at 1200x680 — scale "
                             "it with your image size")
    parser.add_argument("--flight-record", metavar="PATH", default=None,
                        help="record the sparse run's per-frame flight "
                             "record to PATH (JSONL) and write a markdown "
                             "report next to it")
    args = parser.parse_args()

    print(f"building sequence {args.sequence} "
          f"({args.frames} frames, {args.width}x{args.height}) ...")
    sequence = make_replica_sequence(
        args.sequence, n_frames=args.frames,
        width=args.width, height=args.height, surface_density=10)

    # Observers of the run's one event stream (SLAMSystem.run): the
    # flight recorder here, which flushes each record as it lands (so
    # `tail -f` follows the run); the run registry attaches the same
    # way.
    flight = health = None
    observers = []
    if args.flight_record:
        from repro.obs.flight import FlightRecorder
        from repro.obs.health import HealthMonitor
        flight = FlightRecorder()
        flight.enable(args.flight_record)
        health = HealthMonitor()
        observers = [health, flight]

    config = SplatonicConfig(tracking_tile=args.tracking_tile)
    print("\nrunning SPLATONIC (sparse) ...")
    sparse, ate_s, q_s, t_s = run("sparse", sequence, config,
                                  observers=observers)
    if flight is not None:
        flight.disable()
        from repro.obs.flight import read_flight_record
        from repro.obs.report import render_report
        report_path = args.flight_record + ".md"
        with open(report_path, "w") as f:
            f.write(render_report(read_flight_record(args.flight_record)))
        print(f"flight record : {args.flight_record} "
              f"({len(flight.records)} records, "
              f"{len(health.alerts)} health alerts)")
        print(f"flight report : {report_path}")
    print("running baseline (dense) ...")
    dense, ate_d, q_d, t_d = run("dense", sequence)

    print(f"\n{'':12s} {'ATE (cm)':>10s} {'PSNR (dB)':>10s} "
          f"{'depth L1':>10s} {'map size':>9s} {'time (s)':>9s}")
    for label, ate, q, res, t in [
        ("baseline", ate_d, q_d, dense, t_d),
        ("SPLATONIC", ate_s, q_s, sparse, t_s),
    ]:
        print(f"{label:12s} {ate.rmse * 100:10.2f} {q['psnr']:10.2f} "
              f"{q['depth_l1']:10.3f} {len(res.cloud):9d} {t:9.1f}")
    print(f"\nwall-clock speedup of sparse processing: {t_d / t_s:.1f}x "
          f"(pure-python proxy; see benchmarks/ for the modeled GPU and "
          f"accelerator numbers)")


if __name__ == "__main__":
    main()

"""Architecture comparison: GPU vs GauSPU vs GSArch vs SPLATONIC.

Measures one tracking iteration's workload counters on a realistic
mid-sequence map, projects them to the paper's deployment point
(1200x680 frames, 1e5 in-frustum Gaussians), and evaluates every hardware
model — reproducing the Fig. 22 comparison plus the per-stage view of the
SPLATONIC pipeline.

Run:  python examples/accelerator_comparison.py
"""

from repro.bench import build_bundle, print_table, tracking_workloads
from repro.hw import (
    GauSpuAccelerator,
    GpuModel,
    GsArchAccelerator,
    SplatonicAccelerator,
    splatonic_area,
)


def main():
    print("building proxy scenario (mapped at ground-truth poses) ...")
    bundle = build_bundle()
    ws = tracking_workloads(bundle)

    gpu = GpuModel()
    base_t = gpu.iteration_times(ws["dense"]).total
    base_e = gpu.iteration_energy(ws["dense"])

    rows = [{"design": "GPU (dense)", "latency_ms": base_t * 1e3,
             "speedup": 1.0, "energy_saving": 1.0}]
    sw_t = gpu.iteration_times(ws["pixel"]).total
    rows.append({"design": "SPLATONIC-SW", "latency_ms": sw_t * 1e3,
                 "speedup": base_t / sw_t,
                 "energy_saving": base_e / gpu.iteration_energy(ws["pixel"])})
    for name, accel, key in [
        ("GauSPU", GauSpuAccelerator(), "dense"),
        ("GauSPU+S", GauSpuAccelerator(), "tile_sparse"),
        ("GSArch", GsArchAccelerator(), "dense"),
        ("GSArch+S", GsArchAccelerator(), "tile_sparse"),
        ("SPLATONIC-HW", SplatonicAccelerator(), "pixel"),
    ]:
        rep = accel.iteration_report(ws[key])
        rows.append({"design": name, "latency_ms": rep.total_s * 1e3,
                     "speedup": base_t / rep.total_s,
                     "energy_saving": base_e / rep.energy_j})
    print_table("Tracking-iteration comparison (normalized to dense GPU)",
                rows)

    hw = SplatonicAccelerator().iteration_report(ws["pixel"])
    print_table("SPLATONIC-HW stage occupancy (one iteration)", [
        {"stage": k, "busy_us": v * 1e6}
        for k, v in hw.stage_seconds.items()
    ])

    area = splatonic_area()
    print_table("SPLATONIC area at 16 nm", [
        {"component": k, "mm2": v, "share": area.share(k)}
        for k, v in area.components.items()
    ] + [{"component": "TOTAL", "mm2": area.total, "share": 1.0}])


if __name__ == "__main__":
    main()

"""End-to-end run of the split placement with EN-only zero-forcing.

When UE and EN caches together hold at least one library copy
(mu_r + mu_t >= 1), every file splits into a prefix cached at all ENs and a
suffix cached whole at all UEs. Delivery never touches the cloud: the ENs
beamform the prefix subfiles among themselves, so the fronthaul term of the
delivery time is exactly zero at any fronthaul quality.
"""

from fractions import Fraction

import cachenet as cn


def main():
    t = cn.build_topology(5, 2)
    mu_r, mu_t = Fraction(13, 20), Fraction(1, 2)
    f_bits = cn.minimal_zf_file_bits(5, 2, mu_r, mu_t)
    print(f"network: {t.h} ENs x {t.k} UEs, UE share {mu_r} + EN share {mu_t} >= 1")

    lib = cn.random_library(t.k, f_bits, seed=0)
    pl = cn.zf_place(lib, t, mu_r, mu_t)
    print(f"placement: t_R = {pl.t_u}, file = {pl.part_bits['local']}-bit prefix "
          f"(subfiled at UEs) + {pl.suffix_bits}-bit suffix (cached whole)")

    demand = list(range(1, t.k + 1))
    schedule, verdicts = cn.zf_deliver(demand, pl, t, None)
    sizes = sorted({len(step.entries) for step in schedule})
    print(f"delivery: {len(schedule)} chunked steps over the edge only, "
          f"entries per step {sizes}")
    print(f"recovery: {sum(v.ok for v in verdicts)}/{len(verdicts)} files rebuilt bit-exactly")

    v = cn.zf_ndt(5, 2, mu_r, mu_t)
    print(f"delivery time: {v.total} edge, {v.fronthaul} fronthaul (any rho)")
    s = cn.zf_structural_ndt(schedule, pl)
    print(f"structural recount agrees: {s.total == v.total}")
    print()

    # a smaller network where every step fits in one shot: drive it through
    # an actual channel draw, beamformers and all
    t2 = cn.build_topology(4, 2)
    mu_r2, mu_t2 = Fraction(2, 3), Fraction(1, 2)
    lib2 = cn.random_library(t2.k, cn.minimal_zf_file_bits(4, 2, mu_r2, mu_t2), seed=0)
    pl2 = cn.zf_place(lib2, t2, mu_r2, mu_t2)
    demand2 = list(range(1, t2.k + 1))
    ch = cn.draw_channel(t2, seed=0)
    schedule2, verdicts2 = cn.zf_deliver(demand2, pl2, t2, ch)
    print(f"channel-backed run at {t2.h} ENs x {t2.k} UEs: t_R = {pl2.t_u}, "
          f"{len(schedule2)} one-shot steps")
    print(f"recovery under beamforming: {sum(v.ok for v in verdicts2)}/{len(verdicts2)} "
          f"files rebuilt bit-exactly")


if __name__ == "__main__":
    main()

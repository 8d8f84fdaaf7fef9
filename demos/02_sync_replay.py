"""Synchronizing lossy multi-sensor streams.

Groups a scripted loss pattern offline: a healthy frame groups all four
lidars, then two sensors fall silent and the survivors form a group of
their own, then the full rig reports again. In the last frame F_L sends
two scans inside one 10 ms window: a group holds at most one message
per sensor, so the second scan anchors a group of its own. Each group
is an anchor stamp plus, per sensor, the index of its member message
(-1 where the sensor is absent).
"""

from mlio.sync import POSITIONS, Synchronizer

S = 1_000_000_000


def main():
    sensors = [f"lidar/{p}" for p in POSITIONS]
    # frame 1: all four report within the 10 ms window
    messages = list(zip(sensors, (100.000, 100.004, 100.007, 100.009)))
    # frame 2: only F_L and R_R survive
    messages += [("lidar/F_L", 100.200), ("lidar/R_R", 100.203)]
    # frame 3: everyone reports again
    messages += [(sid, 100.600) for sid in sensors]
    # frame 4: everyone reports, and F_L sends a second scan 3 ms later
    messages += [(sid, 101.000) for sid in sensors] + [("lidar/F_L", 101.003)]
    stamps = {sid: [int(t_s * S) for s, t_s in messages if s == sid]
              for sid in sensors}
    groups = Synchronizer(sensors).group(stamps)["lidar"]
    print("four frames; in frame 2 only F_L and R_R report, "
          "in frame 4 F_L sends twice")
    print("  columns:", " ".join(groups.sensors))
    for anchor, row, members in zip(groups.anchors, groups.members,
                                    groups.messages()):
        seconds = ", ".join(f"{t / S:.3f}" for t in members)
        print(f"  group @ {anchor / S:.3f}s members={row.tolist()} "
              f"stamps [{seconds}] s")


if __name__ == "__main__":
    main()

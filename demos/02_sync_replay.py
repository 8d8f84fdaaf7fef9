"""Synchronizing lossy multi-sensor streams.

Groups a scripted loss pattern in one offline sweep: a healthy frame
groups all four lidars, then two sensors fall silent and the survivors
form a group of their own, then the full rig reports again.
"""

from mlio.sync import POSITIONS, StampedSignal, Synchronizer

S = 1_000_000_000


def main():
    sensors = [f"lidar/{p}" for p in POSITIONS]
    # frame 1: all four report within the 10 ms window
    messages = list(zip(sensors, (100.000, 100.004, 100.007, 100.009)))
    # frame 2: only F_L and R_R survive
    messages += [("lidar/F_L", 100.200), ("lidar/R_R", 100.203)]
    # frame 3: everyone reports again
    messages += [(sid, 100.600) for sid in sensors]
    signals = [
        StampedSignal(stamp=int(t_s * S), sensor_id=sid, payload=t_s)
        for sid, t_s in messages
    ]
    sync = Synchronizer(sensors)
    print("three frames; in frame 2 only F_L and R_R report")
    for g in sync.group(signals):
        print(f"  group @ {g.anchor_stamp / S:.3f}s members={sorted(g.members)}")
    print("counters:", sync.counters)


if __name__ == "__main__":
    main()

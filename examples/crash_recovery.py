#!/usr/bin/env python3
"""Power-loss behaviour: dual-buffer BET persistence and table rebuild.

Paper Section 3.2 prescribes saving the BET at shutdown, reloading "any
existing correct version" after a crash (dual-buffer), and never scanning
spare areas to rebuild it.  This example simulates a full power cycle:

1. run a workload with the SW Leveler active;
2. persist the BET (clean shutdown) — then corrupt the newest copy to
   simulate a crash mid-save;
3. "reboot": rebuild the FTL mapping from spare-area tags, reload the BET
   from the surviving buffer, and verify data and leveling state.

Run:  python examples/crash_recovery.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro import MLC2_TINY, SWLConfig, build_stack
from repro.core.bet import BetStore, BlockErasingTable
from repro.util.rng import below


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = (str(Path(tmp) / "bet0.img"), str(Path(tmp) / "bet1.img"))
        store = BetStore(paths)

        # --- Session 1: normal operation --------------------------------
        stack = build_stack(
            MLC2_TINY, "ftl", SWLConfig(threshold=25, k=0),
            store_data=True, rng=random.Random(3),
        )
        layer, leveler = stack.layer, stack.leveler
        rng = random.Random(8)
        expected = {}
        for step in range(20_000):
            lpn = below(rng, layer.num_logical_pages // 2)
            payload = step.to_bytes(4, "little")
            layer.write(lpn, data=payload)
            expected[lpn] = payload
        leveler.persist(store)          # periodic checkpoint
        for step in range(2_000):       # more hot churn, then a clean save
            lpn = below(rng, 8)
            payload = (10**6 + step).to_bytes(4, "little")
            layer.write(lpn, data=payload)
            expected[lpn] = payload
        leveler.persist(store)
        saved_ecnt = leveler.bet.ecnt
        print(f"Session 1: {stack.flash.total_erases()} erases, "
              f"BET saved with ecnt={saved_ecnt}, fcnt={leveler.bet.fcnt}")

        # --- Crash: the newest buffer is torn mid-write ------------------
        # Pick the newest image by its embedded sequence number — that is
        # what the loader trusts; mtime has filesystem granularity and two
        # back-to-back saves can share a timestamp.
        def slot_sequence(path: Path) -> int:
            _, sequence = BlockErasingTable.from_bytes(path.read_bytes())
            return sequence

        newest = max((Path(p) for p in paths), key=slot_sequence)
        image = bytearray(newest.read_bytes())
        image[-3] ^= 0xFF
        newest.write_bytes(bytes(image))
        print(f"Crash: corrupted {newest.name} (torn write)")

        # --- Session 2: attach after power loss --------------------------
        # The RAM translation table is gone; rebuild it from spare areas.
        recovered = layer.rebuild_mapping()
        intact = sum(1 for lpn, data in expected.items() if layer.read(lpn) == data)
        print(f"Reboot: rebuilt {recovered} mappings from spare-area tags; "
              f"{intact}/{len(expected)} logical pages verified intact")
        assert intact == len(expected)

        # The BET reloads from the older (valid) buffer, exactly as the
        # paper allows ("load any existing correct version").
        fresh = build_stack(
            MLC2_TINY, "ftl", SWLConfig(threshold=25, k=0),
            store_data=True, rng=random.Random(3),
        )
        restored = fresh.leveler.restore(store)
        print(f"BET restore from dual buffer: {'ok' if restored else 'FAILED'} "
              f"(ecnt={fresh.leveler.bet.ecnt}, a slightly stale but usable "
              "image — Section 3.3: the counters 'could tolerate some errors')")
        assert restored
        assert fresh.leveler.bet.ecnt <= saved_ecnt


if __name__ == "__main__":
    main()

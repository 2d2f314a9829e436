"""Correct commit shapes: flush, fire, then name — with the
superblock barriered on every shard's completion."""

from repro.fault import names as fault_names


class Store:
    def commit_snapshot(self, snapshot):
        self.write_meta(snapshot)
        self.batch.flush()
        if self.faults is not None:
            self.faults.fire(fault_names.FP_STORE_COMMIT, store=self.name)
        self.volume.write_superblock(
            self.directory, release_ns=self.device.pending_deadline()
        )

    def commit_parallel(self, snapshot):
        # The sharded flush submits each shard's runs on its own
        # queue; the superblock then barriers on ALL of them via the
        # device-wide pending deadline.
        self.write_meta(snapshot)
        self.batch.flush()
        if self.faults is not None:
            self.faults.fire(fault_names.FP_STORE_COMMIT, store=self.name)
        self.volume.write_superblock(
            self.directory, release_ns=self.device.pending_deadline()
        )

"""Five crash-ordering violations in one store."""

from repro.fault import names as fault_names


class Store:
    def commit_snapshot(self, snapshot):
        self.write_meta(snapshot)
        # superblock written while the batch still stages the record
        # (also: no failpoint before it, and no release_ns barrier)
        self.volume.write_superblock(self.directory)

    def commit_parallel(self, snapshot):
        if self.faults is not None:
            self.faults.fire(fault_names.FP_STORE_COMMIT, store=self.name)
        for shard, writes in self.shards.items():
            self.volume.write_data_batch(writes, queue=shard)
        # release_ns=None defeats the all-shard barrier: a shard's
        # records may still be in flight when the superblock lands
        self.volume.write_superblock(self.directory, release_ns=None)

    def compact(self):
        # raw device write bypassing the Volume layer
        self.device.write(0, b"x")

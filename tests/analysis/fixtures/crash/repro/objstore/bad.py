"""Two crash-ordering violations in one store."""

from repro.fault import names as fault_names


class ObjectStore:
    def _write_directory(self):
        # the commit point itself: fine
        self.batch.flush()
        self.volume.write_superblock(self.directory.payload())

    def commit_snapshot(self, snapshot):
        if self.faults is not None:
            self.faults.fire(fault_names.FP_STORE_COMMIT, store=self.name)
        self.write_meta(snapshot)
        # a second write_superblock call site: a second copy of the
        # write sequence, and this one forgot the flush
        self.volume.write_superblock(self.directory.payload())

    def write_tail(self, extent, record):
        # a volume write with no failpoint before it: fine
        self.volume.write_data(extent.offset, record)

    def compact(self):
        # raw device write bypassing the Volume layer
        self.device.write(0, b"x")

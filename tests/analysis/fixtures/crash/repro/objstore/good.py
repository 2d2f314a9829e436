"""The correct shape: one commit point that fires, flushes, then names;
everything else that names a snapshot goes through it."""

from repro.fault import names as fault_names


class ObjectStore:
    def _write_directory(self):
        if self.faults is not None:
            self.faults.fire(fault_names.FP_STORE_WRITE_DIRECTORY,
                             store=self.name)
        self.batch.flush()
        self.volume.write_superblock(self.directory.payload())

    def commit_snapshot(self, snapshot):
        if self.faults is not None:
            self.faults.fire(fault_names.FP_STORE_COMMIT, store=self.name)
        self.write_meta(snapshot)
        self.volume.write_data(snapshot.extent.offset, snapshot.manifest)
        self._write_directory()

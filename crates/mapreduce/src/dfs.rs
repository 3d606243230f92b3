//! A simulated distributed file system (HDFS/GFS stand-in).
//!
//! Files are named, immutable-once-written collections of *partitions*
//! (Hadoop `part-NNNNN` outputs), each a run of encoded records. The DFS
//! holds data only; replication shows up as the cost model's replication
//! traffic (`ClusterConfig::dfs_replication`), not as replica placement.

use std::collections::HashMap;

use crate::encode::{get_bytes, get_varint, put_bytes, put_varint};
use crate::error::{DecodeError, MrError};
use crate::record::{decode_record, encode_record, Datum};

/// One `part-NNNNN` output: a byte run of encoded records.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Encoded `(key, value)` records, back to back.
    pub data: Vec<u8>,
    /// Number of records in `data`.
    pub records: u64,
}

impl Partition {
    /// Decodes every record in this partition.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if the byte run is malformed.
    pub fn decode_all<K: Datum, V: Datum>(&self) -> Result<Vec<(K, V)>, DecodeError> {
        let mut out = Vec::with_capacity(self.records as usize);
        let mut input = self.data.as_slice();
        while !input.is_empty() {
            out.push(decode_record(&mut input)?);
        }
        if out.len() as u64 != self.records {
            return Err(DecodeError::new("partition record count mismatch"));
        }
        Ok(out)
    }

    /// Splits the byte run into input splits of at most `block_bytes`
    /// (each ending on a record boundary, like HDFS block-aligned
    /// `InputSplit`s), covering the partition in order.
    ///
    /// # Errors
    /// [`DecodeError`] if the record framing is malformed.
    pub fn splits(&self, block_bytes: usize) -> Result<Vec<&[u8]>, DecodeError> {
        let block_bytes = block_bytes.max(1);
        let mut out = Vec::new();
        let mut input = self.data.as_slice();
        let mut split = input;
        while !input.is_empty() {
            // Skip one record: two length-prefixed byte runs.
            get_bytes(&mut input)?;
            get_bytes(&mut input)?;
            let len = split.len() - input.len();
            if len >= block_bytes || input.is_empty() {
                out.push(&split[..len]);
                split = input;
            }
        }
        Ok(out)
    }
}

/// A named file: an ordered list of partitions.
#[derive(Debug, Clone, Default)]
pub struct DfsFile {
    /// The partitions, in partition-index order.
    pub partitions: Vec<Partition>,
}

impl DfsFile {
    /// Total encoded bytes across partitions (one replica).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.data.len() as u64).sum()
    }

    /// Total records across partitions.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.partitions.iter().map(|p| p.records).sum()
    }
}

/// The simulated DFS: a namespace of [`DfsFile`]s plus raw side-file
/// blobs. Every file is always readable: nodes do not fail in this model,
/// and task failures are retried by the runtime's
/// [`FailurePolicy`](crate::FailurePolicy) instead.
///
/// # Example
/// ```
/// # fn main() -> Result<(), mapreduce::MrError> {
/// let mut dfs = mapreduce::Dfs::new();
/// dfs.write_records("in", 2, vec![(1u64, 10i64), (2, 20), (3, 30)])?;
/// let back: Vec<(u64, i64)> = dfs.read_records("in")?;
/// assert_eq!(back.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Dfs {
    files: HashMap<String, DfsFile>,
    blobs: HashMap<String, Vec<u8>>,
}

/// Version tag of the serialized [`Dfs`] image format. Version 1 also
/// carried replica placement and failed nodes; it is refused.
const DFS_IMAGE_VERSION: u64 = 2;

impl Dfs {
    /// Creates an empty DFS.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes typed records into `path`, spread round-robin over
    /// `partitions` partitions. Intended for loading raw job input;
    /// job outputs are written by the runtime with hash partitioning.
    /// Records keep their given order, so such a file is a valid schimmy
    /// input only if each partition is already in key order.
    ///
    /// # Errors
    /// Returns [`MrError::OutputExists`] if `path` exists, or
    /// [`MrError::InvalidJob`] if `partitions == 0`.
    pub fn write_records<K, V, I>(
        &mut self,
        path: &str,
        partitions: usize,
        records: I,
    ) -> Result<(), MrError>
    where
        K: Datum,
        V: Datum,
        I: IntoIterator<Item = (K, V)>,
    {
        if partitions == 0 {
            return Err(MrError::InvalidJob("partitions must be > 0".into()));
        }
        if self.files.contains_key(path) {
            return Err(MrError::OutputExists(path.to_owned()));
        }
        let mut parts = vec![Partition::default(); partitions];
        for (i, (k, v)) in records.into_iter().enumerate() {
            let p = &mut parts[i % partitions];
            encode_record(&k, &v, &mut p.data);
            p.records += 1;
        }
        self.files
            .insert(path.to_owned(), DfsFile { partitions: parts });
        Ok(())
    }

    /// Reads and decodes every record of `path`, partition order then
    /// record order.
    ///
    /// # Errors
    /// [`MrError::FileNotFound`] or a decode failure.
    pub fn read_records<K: Datum, V: Datum>(&self, path: &str) -> Result<Vec<(K, V)>, MrError> {
        let file = self.file(path)?;
        let mut out = Vec::with_capacity(file.records() as usize);
        for p in &file.partitions {
            out.extend(p.decode_all()?);
        }
        Ok(out)
    }

    /// Inserts a file assembled by the runtime (reduce outputs).
    ///
    /// # Errors
    /// [`MrError::OutputExists`] if `path` exists.
    pub(crate) fn insert_file(&mut self, path: &str, file: DfsFile) -> Result<(), MrError> {
        if self.files.contains_key(path) {
            return Err(MrError::OutputExists(path.to_owned()));
        }
        self.files.insert(path.to_owned(), file);
        Ok(())
    }

    /// Borrows a file.
    ///
    /// # Errors
    /// [`MrError::FileNotFound`].
    pub fn file(&self, path: &str) -> Result<&DfsFile, MrError> {
        self.files
            .get(path)
            .ok_or_else(|| MrError::FileNotFound(path.to_owned()))
    }

    /// Whether `path` names a record file.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Removes a record file, returning whether it existed. Removing
    /// intermediate round outputs keeps long chains memory-bounded.
    pub fn delete(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Total bytes of one replica of `path` (0 if absent) — the paper's
    /// "Size" column for the graph file.
    #[must_use]
    pub fn file_bytes(&self, path: &str) -> u64 {
        self.files.get(path).map_or(0, DfsFile::bytes)
    }

    /// Total records in `path` (0 if absent).
    #[must_use]
    pub fn file_records(&self, path: &str) -> u64 {
        self.files.get(path).map_or(0, DfsFile::records)
    }

    /// Writes (or replaces) a raw side-file blob, e.g. the per-round
    /// `AugmentedEdges` table every mapper reads.
    pub fn write_blob(&mut self, path: &str, bytes: Vec<u8>) {
        self.blobs.insert(path.to_owned(), bytes);
    }

    /// Appends bytes to a side-file blob, creating it if absent. Unlike
    /// rewriting via [`Dfs::write_blob`], the cost is proportional to
    /// the appended slice — what a per-round log (the job history) needs.
    pub fn append_blob(&mut self, path: &str, bytes: &[u8]) {
        self.blobs
            .entry(path.to_owned())
            .or_default()
            .extend_from_slice(bytes);
    }

    /// Reads a side-file blob.
    ///
    /// # Errors
    /// [`MrError::FileNotFound`].
    pub fn read_blob(&self, path: &str) -> Result<&[u8], MrError> {
        self.blobs
            .get(path)
            .map(Vec::as_slice)
            .ok_or_else(|| MrError::FileNotFound(path.to_owned()))
    }

    /// Size of a blob in bytes (0 if absent).
    #[must_use]
    pub fn blob_bytes(&self, path: &str) -> u64 {
        self.blobs.get(path).map_or(0, |b| b.len() as u64)
    }

    /// Names of all record files, sorted (deterministic listing).
    #[must_use]
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.keys().cloned().collect();
        names.sort();
        names
    }

    /// Serializes the whole namespace — files and blobs — into a
    /// deterministic byte image. A driver
    /// process about to exit (or crash, in tests) can persist this and a
    /// later process can [`Dfs::from_image`] it to resume where the first
    /// left off; this is the simulated analogue of HDFS simply outliving
    /// the job driver.
    #[must_use]
    pub fn to_image(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(DFS_IMAGE_VERSION, &mut out);
        let mut names = self.list();
        put_varint(names.len() as u64, &mut out);
        for name in &names {
            let file = &self.files[name];
            put_bytes(name.as_bytes(), &mut out);
            put_varint(file.partitions.len() as u64, &mut out);
            for p in &file.partitions {
                put_varint(p.records, &mut out);
                put_bytes(&p.data, &mut out);
            }
        }
        names = self.blobs.keys().cloned().collect();
        names.sort();
        put_varint(names.len() as u64, &mut out);
        for name in &names {
            put_bytes(name.as_bytes(), &mut out);
            put_bytes(&self.blobs[name], &mut out);
        }
        out
    }

    /// Reconstructs a [`Dfs`] from a [`Dfs::to_image`] byte image.
    ///
    /// # Errors
    /// [`DecodeError`] on truncation, trailing bytes, or a version this
    /// build does not understand.
    pub fn from_image(mut input: &[u8]) -> Result<Self, DecodeError> {
        let input = &mut input;
        if get_varint(input)? != DFS_IMAGE_VERSION {
            return Err(DecodeError::new("unsupported DFS image version"));
        }
        let mut dfs = Self::default();
        for _ in 0..get_varint(input)? {
            let name = String::from_utf8(get_bytes(input)?.to_vec())
                .map_err(|_| DecodeError::new("file name is not UTF-8"))?;
            let parts = get_varint(input)?;
            let mut partitions = Vec::with_capacity(parts as usize);
            for _ in 0..parts {
                partitions.push(Partition {
                    records: get_varint(input)?,
                    data: get_bytes(input)?.to_vec(),
                });
            }
            dfs.files.insert(name, DfsFile { partitions });
        }
        for _ in 0..get_varint(input)? {
            let name = String::from_utf8(get_bytes(input)?.to_vec())
                .map_err(|_| DecodeError::new("blob name is not UTF-8"))?;
            dfs.blobs.insert(name, get_bytes(input)?.to_vec());
        }
        if !input.is_empty() {
            return Err(DecodeError::new("trailing bytes after DFS image"));
        }
        Ok(dfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_partitioning() {
        let mut dfs = Dfs::new();
        dfs.write_records("f", 3, (0..10u64).map(|i| (i, i * 2)))
            .unwrap();
        let file = dfs.file("f").unwrap();
        assert_eq!(file.partitions.len(), 3);
        assert_eq!(file.partitions[0].records, 4); // 0,3,6,9
        assert_eq!(file.partitions[1].records, 3);
        assert_eq!(file.partitions[2].records, 3);
        assert_eq!(file.records(), 10);
    }

    #[test]
    fn read_returns_all_records() {
        let mut dfs = Dfs::new();
        let input: Vec<(u64, String)> = (0..5).map(|i| (i, format!("v{i}"))).collect();
        dfs.write_records("f", 2, input.clone()).unwrap();
        let mut back: Vec<(u64, String)> = dfs.read_records("f").unwrap();
        back.sort();
        assert_eq!(back, input);
    }

    #[test]
    fn overwrite_is_refused() {
        let mut dfs = Dfs::new();
        dfs.write_records("f", 1, vec![(1u64, 1u64)]).unwrap();
        let err = dfs.write_records("f", 1, vec![(2u64, 2u64)]).unwrap_err();
        assert!(matches!(err, MrError::OutputExists(_)));
    }

    #[test]
    fn missing_file_is_error() {
        let dfs = Dfs::new();
        assert!(matches!(
            dfs.read_records::<u64, u64>("nope"),
            Err(MrError::FileNotFound(_))
        ));
        assert_eq!(dfs.file_bytes("nope"), 0);
    }

    #[test]
    fn zero_partitions_rejected() {
        let mut dfs = Dfs::new();
        let err = dfs.write_records("f", 0, vec![(1u64, 1u64)]).unwrap_err();
        assert!(matches!(err, MrError::InvalidJob(_)));
    }

    #[test]
    fn delete_frees_name_for_rewrite() {
        let mut dfs = Dfs::new();
        dfs.write_records("f", 1, vec![(1u64, 1u64)]).unwrap();
        assert!(dfs.delete("f"));
        assert!(!dfs.delete("f"));
        dfs.write_records("f", 1, vec![(2u64, 2u64)]).unwrap();
        let back: Vec<(u64, u64)> = dfs.read_records("f").unwrap();
        assert_eq!(back, vec![(2, 2)]);
    }

    #[test]
    fn blobs_are_separate_namespace() {
        let mut dfs = Dfs::new();
        dfs.write_blob("b", vec![1, 2, 3]);
        assert_eq!(dfs.read_blob("b").unwrap(), &[1, 2, 3]);
        assert_eq!(dfs.blob_bytes("b"), 3);
        assert!(!dfs.exists("b"));
        assert!(dfs.read_blob("missing").is_err());
    }

    #[test]
    fn empty_input_makes_empty_partitions() {
        let mut dfs = Dfs::new();
        dfs.write_records::<u64, u64, _>("f", 4, Vec::new())
            .unwrap();
        assert_eq!(dfs.file_records("f"), 0);
        assert_eq!(dfs.file("f").unwrap().partitions.len(), 4);
    }

    #[test]
    fn splits_cover_partition_at_record_boundaries() {
        let mut dfs = Dfs::new();
        dfs.write_records("f", 1, (0..100u64).map(|i| (i, vec![0u8; 10])))
            .unwrap();
        let part = &dfs.file("f").unwrap().partitions[0];
        for block in [1usize, 16, 64, 1 << 20] {
            let splits = part.splits(block).unwrap();
            // Contiguous coverage, in order.
            assert!(splits.iter().all(|s| !s.is_empty()));
            assert_eq!(splits.concat(), part.data, "block {block}");
            // Every split decodes on its own, and no record is lost.
            let mut total_records = 0;
            for mut split in splits {
                while !split.is_empty() {
                    decode_record::<u64, Vec<u8>>(&mut split).unwrap();
                    total_records += 1;
                }
            }
            assert_eq!(total_records, 100, "block {block}");
        }
        // Tiny blocks: one record per split; huge blocks: one split.
        assert_eq!(part.splits(1).unwrap().len(), 100);
        assert_eq!(part.splits(1 << 20).unwrap().len(), 1);
    }

    #[test]
    fn splits_of_empty_partition() {
        let p = Partition::default();
        assert!(p.splits(64).unwrap().is_empty());
    }

    #[test]
    fn image_round_trips_every_field() {
        let mut dfs = Dfs::new();
        dfs.write_records("f", 2, (0..6u64).map(|i| (i, format!("v{i}"))))
            .unwrap();
        dfs.write_blob("side", vec![9, 8, 7]);
        let image = dfs.to_image();
        let back = Dfs::from_image(&image).unwrap();
        assert_eq!(back.to_image(), image, "image is a fixed point");
        let recs: Vec<(u64, String)> = back.read_records("f").unwrap();
        assert_eq!(recs.len(), 6);
        assert_eq!(back.read_blob("side").unwrap(), &[9, 8, 7]);
    }

    #[test]
    fn image_rejects_corruption() {
        let dfs = Dfs::new();
        let mut image = dfs.to_image();
        assert!(
            Dfs::from_image(&image[..image.len() - 1]).is_err(),
            "truncated"
        );
        image.push(0);
        assert!(Dfs::from_image(&image).is_err(), "trailing byte");
        image.pop();
        image[0] = 1; // the retired version-1 layout
        let err = Dfs::from_image(&image).unwrap_err();
        assert!(err.to_string().contains("unsupported DFS image version"));
    }

    #[test]
    fn corrupted_partition_fails_decode() {
        let mut dfs = Dfs::new();
        dfs.write_records("f", 1, vec![(1u64, 2u64)]).unwrap();
        // Corrupt the stored bytes.
        let file = dfs.files.get_mut("f").unwrap();
        file.partitions[0].data.truncate(1);
        assert!(dfs.read_records::<u64, u64>("f").is_err());
    }
}

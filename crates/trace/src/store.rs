//! Columnar trace store (`.siestatrace`, format `SIESTC1`).
//!
//! The one on-disk trace format: the merged trace the paper's offline
//! workflow records once and synthesizes from elsewhere. The file is laid
//! out the way the reader consumes it, following the renacer tracing
//! exemplar (hash-interned ids, append-only logs):
//!
//! * **Struct-of-arrays event table.** One `u8` kind/tag column and one
//!   `u64` payload-reference column (offset ≪ 32 | length into a payload
//!   pool), instead of variable-length rows.
//! * **Hash-interned payload pool.** Payload bytes are deduped through a
//!   `siesta-hash` u64 content index before writing — equal payloads
//!   (e.g. mirrored send/recv bodies) share pool storage.
//! * **Chunked sequence append.** Per-rank id sequences are appended as
//!   independent chunks (`rank`, `count`, FxHash checksum, raw
//!   little-endian `u32` ids, 4-byte aligned). A streaming producer emits
//!   chunks as buffers fill; a rank's sequence may span any number of
//!   chunks.
//! * **Validated one-pass decode.** [`decode_store`] walks header,
//!   columns, pool, chunks and footer once, appending each checksummed
//!   chunk straight onto its rank's sequence. Every structural field is
//!   checked on the way — bounds, markers, per-chunk checksums, footer
//!   counts — so a corrupt or truncated file fails with a [`StoreError`]
//!   and never panics.

use std::hash::Hasher;
use std::io::{self, Write};
use std::path::Path;

use siesta_hash::{fx_map_with_capacity, FxHashMap, FxHasher};

use crate::event::{ComputeStats, EventRecord};
use crate::merge::GlobalTrace;
use crate::wire::{get_event, put_event, Reader, WireError, Writer};

pub const STORE_MAGIC: &[u8; 8] = b"SIESTC1\0";
const STORE_VERSION: u32 = 1;
const HEADER_BYTES: usize = 32;
const CHUNK_HEADER_BYTES: usize = 16;
const FOOTER_BYTES: usize = 16;
const CHUNK_MARKER: u32 = u32::from_le_bytes(*b"CHNK");
const FOOTER_MARKER: u32 = u32::from_le_bytes(*b"FOTR");
/// Kind-column value for compute events (comm events use their wire tag).
const KIND_COMPUTE: u8 = 0xFF;
/// Ids per chunk when writing a whole sequence at once.
pub const DEFAULT_CHUNK_IDS: usize = 1 << 16;

/// Columnar-store decode/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    Wire(WireError),
    BadHeader(&'static str),
    BadChunk { index: usize, reason: &'static str },
    ChecksumMismatch { index: usize },
    BadFooter(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wire(WireError::BadMagic) => {
                write!(f, "not a SIESTC1 trace store (bad magic)")
            }
            StoreError::Wire(e) => write!(f, "{e}"),
            StoreError::BadHeader(why) => write!(f, "corrupt store header: {why}"),
            StoreError::BadChunk { index, reason } => {
                write!(f, "corrupt chunk {index}: {reason}")
            }
            StoreError::ChecksumMismatch { index } => {
                write!(f, "chunk {index} checksum mismatch")
            }
            StoreError::BadFooter(why) => write!(f, "corrupt store footer: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> StoreError {
        StoreError::Wire(e)
    }
}

fn fx_checksum(bytes: &[u8]) -> u32 {
    let mut h = FxHasher::default();
    h.write(bytes);
    let v = h.finish();
    (v ^ (v >> 32)) as u32
}

fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Chunked-append columnar store writer. Construct with the merged table
/// (header + columns are emitted immediately), then [`append_chunk`] id
/// runs in any order — a streaming producer calls it once per flushed
/// buffer — and [`finish`] seals the file with the footer.
///
/// [`append_chunk`]: StoreWriter::append_chunk
/// [`finish`]: StoreWriter::finish
pub struct StoreWriter<W: Write> {
    sink: W,
    nchunks: u32,
    total_ids: u64,
}

impl<W: Write> StoreWriter<W> {
    pub fn new(
        mut sink: W,
        nranks: usize,
        merge_rounds: u32,
        raw_bytes: usize,
        table: &[EventRecord],
    ) -> io::Result<StoreWriter<W>> {
        // Columns are assembled in memory — the terminal table is the
        // *compressed* side of the trace (hundreds of entries, not
        // millions), only the sequences stream.
        let mut tags = Vec::with_capacity(table.len());
        let mut refs: Vec<u64> = Vec::with_capacity(table.len());
        let mut pool: Vec<u8> = Vec::new();
        // u64 content-hash intern index into the pool; equal payloads
        // share bytes. Buckets hold (offset, len) and are verified by
        // byte comparison, so a hash collision costs a compare, never a
        // wrong reference.
        let mut intern: FxHashMap<u64, Vec<(u32, u32)>> = fx_map_with_capacity(table.len());
        for rec in table {
            let (tag, payload) = encode_record(rec);
            let mut h = FxHasher::default();
            h.write(&payload);
            let key = h.finish();
            let bucket = intern.entry(key).or_default();
            let found = bucket
                .iter()
                .find(|&&(off, len)| {
                    &pool[off as usize..off as usize + len as usize] == payload.as_slice()
                })
                .copied();
            let (off, len) = match found {
                Some(hit) => hit,
                None => {
                    let off = pool.len() as u32;
                    let len = payload.len() as u32;
                    pool.extend_from_slice(&payload);
                    bucket.push((off, len));
                    (off, len)
                }
            };
            tags.push(tag);
            refs.push(((off as u64) << 32) | len as u64);
        }

        let mut head = Writer::new();
        head.buf.extend_from_slice(STORE_MAGIC);
        head.u32(STORE_VERSION);
        head.u32(nranks as u32);
        head.u32(merge_rounds);
        head.u64(raw_bytes as u64);
        head.u32(table.len() as u32);
        debug_assert_eq!(head.buf.len(), HEADER_BYTES);
        head.buf.extend_from_slice(&tags);
        head.buf.resize(pad8(head.buf.len()), 0);
        for r in &refs {
            head.u64(*r);
        }
        head.u64(pool.len() as u64);
        head.buf.extend_from_slice(&pool);
        head.buf.resize(pad8(head.buf.len()), 0);
        sink.write_all(&head.buf)?;
        Ok(StoreWriter { sink, nchunks: 0, total_ids: 0 })
    }

    /// Append one run of ids for `rank`. Runs for the same rank
    /// concatenate in append order.
    pub fn append_chunk(&mut self, rank: u32, ids: &[u32]) -> io::Result<()> {
        let mut w = Writer::new();
        w.u32(CHUNK_MARKER);
        w.u32(rank);
        w.u32(ids.len() as u32);
        let body_start = w.buf.len() + 4; // after the checksum field
        w.u32(0); // checksum placeholder
        for &id in ids {
            w.u32(id);
        }
        let sum = fx_checksum(&w.buf[body_start..]);
        w.buf[body_start - 4..body_start].copy_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(w.buf.len(), CHUNK_HEADER_BYTES + ids.len() * 4);
        self.sink.write_all(&w.buf)?;
        self.nchunks += 1;
        self.total_ids += ids.len() as u64;
        Ok(())
    }

    /// Seal the store and return the sink.
    pub fn finish(mut self) -> io::Result<W> {
        let mut w = Writer::new();
        w.u32(FOOTER_MARKER);
        w.u32(self.nchunks);
        w.u64(self.total_ids);
        debug_assert_eq!(w.buf.len(), FOOTER_BYTES);
        self.sink.write_all(&w.buf)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

fn encode_record(rec: &EventRecord) -> (u8, Vec<u8>) {
    match rec {
        EventRecord::Comm(e) => {
            let mut w = Writer::new();
            put_event(&mut w, e);
            (w.buf[0], w.buf)
        }
        EventRecord::Compute(s) => {
            let mut w = Writer::new();
            w.counters(&s.repr);
            w.counters(&s.sum);
            w.u64(s.count);
            (KIND_COMPUTE, w.buf)
        }
    }
}

/// Serialize a whole merged trace in store format (sequences chunked at
/// [`DEFAULT_CHUNK_IDS`] ids).
pub fn store_to_bytes(t: &GlobalTrace) -> Vec<u8> {
    let mut w = StoreWriter::new(
        Vec::new(),
        t.nranks,
        t.merge_rounds,
        t.raw_bytes,
        &t.table,
    )
    .expect("Vec sink cannot fail");
    for (rank, seq) in t.seqs.iter().enumerate() {
        for chunk in seq.chunks(DEFAULT_CHUNK_IDS) {
            w.append_chunk(rank as u32, chunk).expect("Vec sink cannot fail");
        }
    }
    w.finish().expect("Vec sink cannot fail")
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Largest rank count a store header may claim. The reader allocates one
/// sequence per rank before it reads any chunk, so the header's `nranks`
/// is bounded first: 2²⁴ is 16× the largest world the simulator runs
/// (`1m`), and a flipped high bit can no longer ask for billions of
/// vectors.
const MAX_STORE_RANKS: usize = 1 << 24;

/// Load a merged trace from a columnar store file (`SIESTC1`). Any other
/// file — including the retired row-codec format — is rejected with an
/// error naming the expected format.
pub fn load_trace(path: &Path) -> Result<GlobalTrace, Box<dyn std::error::Error>> {
    Ok(decode_store(&std::fs::read(path)?)?)
}

/// Decode a whole store image in one validated pass: header, table
/// columns, payload pool, every chunk (checksummed, then appended to its
/// rank's sequence) and the footer. Any structural fault — bad magic or
/// version, an overflowing or out-of-bounds length, a bad chunk marker,
/// an out-of-range rank, a checksum or footer-count mismatch, a payload
/// reference outside the pool, a kind byte that disagrees with its
/// payload — is a [`StoreError`], never a panic.
pub fn decode_store(b: &[u8]) -> Result<GlobalTrace, StoreError> {
    if b.get(..8) != Some(&STORE_MAGIC[..]) {
        return Err(StoreError::Wire(WireError::BadMagic));
    }
    if b.len() < HEADER_BYTES + FOOTER_BYTES {
        return Err(StoreError::BadHeader("file shorter than header + footer"));
    }
    let mut r = Reader::new(&b[8..HEADER_BYTES]);
    let version = r.u32().expect("sized above");
    if version != STORE_VERSION {
        return Err(StoreError::Wire(WireError::UnsupportedVersion(version as u8)));
    }
    let nranks = r.u32().expect("sized above") as usize;
    let merge_rounds = r.u32().expect("sized above");
    let raw_bytes = r.u64().expect("sized above") as usize;
    let table_len = r.u32().expect("sized above") as usize;
    if nranks > MAX_STORE_RANKS {
        return Err(StoreError::BadHeader("rank count exceeds the store limit"));
    }

    let footer_off = b.len() - FOOTER_BYTES;
    let tags_off = HEADER_BYTES;
    let refs_off = pad8(tags_off + table_len);
    let pool_len_off = table_len
        .checked_mul(8)
        .and_then(|n| n.checked_add(refs_off))
        .ok_or(StoreError::BadHeader("table length overflows"))?;
    if pool_len_off + 8 > footer_off {
        return Err(StoreError::BadHeader("table columns overrun file"));
    }
    let pool_off = pool_len_off + 8;
    let pool_len = u64::from_le_bytes(b[pool_len_off..pool_off].try_into().unwrap());
    let pool_end = usize::try_from(pool_len)
        .ok()
        .and_then(|n| n.checked_add(pool_off))
        .ok_or(StoreError::BadHeader("payload pool length overflows"))?;
    // `pool_end` is bounded before it is padded: padding a near-`usize::MAX`
    // end would overflow.
    if pool_end > footer_off || pad8(pool_end) > footer_off {
        return Err(StoreError::BadHeader("payload pool overruns file"));
    }

    let pool = &b[pool_off..pool_end];
    let kinds = &b[tags_off..tags_off + table_len];
    let refs = b[refs_off..pool_len_off].chunks_exact(8);
    let mut table = Vec::with_capacity(table_len);
    for (&kind, packed) in kinds.iter().zip(refs) {
        let packed = u64::from_le_bytes(packed.try_into().unwrap());
        let (off, len) = ((packed >> 32) as usize, (packed & 0xffff_ffff) as usize);
        let payload = pool
            .get(off..off + len)
            .ok_or(StoreError::BadHeader("payload reference overruns pool"))?;
        let mut r = Reader::new(payload);
        if kind == KIND_COMPUTE {
            let repr = r.counters()?;
            let sum = r.counters()?;
            let count = r.u64()?;
            table.push(EventRecord::Compute(ComputeStats { repr, sum, count }));
        } else {
            let e = get_event(&mut r)?;
            if payload.first() != Some(&kind) {
                return Err(StoreError::BadHeader("kind column disagrees with payload"));
            }
            table.push(EventRecord::Comm(e));
        }
    }

    let mut seqs: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    let mut pos = pad8(pool_end);
    let mut nchunks = 0usize;
    let mut total_ids = 0u64;
    while pos < footer_off {
        let index = nchunks;
        if pos + CHUNK_HEADER_BYTES > footer_off {
            return Err(StoreError::BadChunk { index, reason: "truncated header" });
        }
        let mut ch = Reader::new(&b[pos..pos + CHUNK_HEADER_BYTES]);
        if ch.u32().expect("sized above") != CHUNK_MARKER {
            return Err(StoreError::BadChunk { index, reason: "bad marker" });
        }
        let rank = ch.u32().expect("sized above") as usize;
        let count = ch.u32().expect("sized above") as usize;
        let sum = ch.u32().expect("sized above");
        if rank >= nranks {
            return Err(StoreError::BadChunk { index, reason: "rank out of range" });
        }
        let ids_off = pos + CHUNK_HEADER_BYTES;
        let ids_end = count
            .checked_mul(4)
            .and_then(|n| n.checked_add(ids_off))
            .ok_or(StoreError::BadChunk { index, reason: "count overflows" })?;
        if ids_end > footer_off {
            return Err(StoreError::BadChunk { index, reason: "ids overrun file" });
        }
        let ids = &b[ids_off..ids_end];
        if fx_checksum(ids) != sum {
            return Err(StoreError::ChecksumMismatch { index });
        }
        seqs[rank].extend(ids.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())));
        nchunks += 1;
        total_ids += count as u64;
        pos = ids_end;
    }
    let mut fr = Reader::new(&b[footer_off..]);
    if fr.u32().expect("sized above") != FOOTER_MARKER {
        return Err(StoreError::BadFooter("bad marker"));
    }
    if fr.u32().expect("sized above") as usize != nchunks {
        return Err(StoreError::BadFooter("chunk count mismatch"));
    }
    if fr.u64().expect("sized above") != total_ids {
        return Err(StoreError::BadFooter("id count mismatch"));
    }

    Ok(GlobalTrace { nranks, table, seqs, raw_bytes, merge_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommEvent;
    use siesta_perfmodel::CounterVec;

    fn sample() -> GlobalTrace {
        GlobalTrace {
            nranks: 3,
            table: vec![
                EventRecord::Comm(CommEvent::Send { rel: 1, tag: 3, bytes: 4096, comm: 0 }),
                EventRecord::Compute(ComputeStats {
                    repr: CounterVec::new(1.5, 2.5, 3.5, 4.5, 5.5, 6.5),
                    sum: CounterVec::new(3.0, 5.0, 7.0, 9.0, 11.0, 13.0),
                    count: 2,
                }),
                EventRecord::Comm(CommEvent::Send { rel: 1, tag: 3, bytes: 4096, comm: 1 }),
                EventRecord::Comm(CommEvent::Waitall { reqs: vec![0, 1, 2] }),
            ],
            seqs: vec![vec![0, 1, 2, 3, 0, 1], vec![1, 0], vec![]],
            raw_bytes: 12345,
            merge_rounds: 2,
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let t = sample();
        let u = decode_store(&store_to_bytes(&t)).expect("decode");
        assert_eq!(t.nranks, u.nranks);
        assert_eq!(t.merge_rounds, u.merge_rounds);
        assert_eq!(t.raw_bytes, u.raw_bytes);
        assert_eq!(t.seqs, u.seqs);
        assert_eq!(format!("{:?}", t.table), format!("{:?}", u.table));
    }

    #[test]
    fn round_trips_through_file() {
        let t = sample();
        let dir = std::env::temp_dir().join(format!("siesta-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.siestatrace");
        std::fs::write(&path, store_to_bytes(&t)).expect("write");
        let u = load_trace(&path).expect("open");
        assert_eq!(u.seqs[0], t.seqs[0]);
        assert_eq!(u.seqs[2], t.seqs[2]);
        assert_eq!(u.seqs, t.seqs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_append_spans_ranks() {
        // A streaming producer interleaves small chunks across ranks; the
        // reader must reassemble per-rank order.
        let mut w = StoreWriter::new(Vec::new(), 2, 1, 10, &sample().table).unwrap();
        w.append_chunk(0, &[0, 1]).unwrap();
        w.append_chunk(1, &[3]).unwrap();
        w.append_chunk(0, &[2]).unwrap();
        w.append_chunk(1, &[]).unwrap();
        w.append_chunk(0, &[3, 0]).unwrap();
        let u = decode_store(&w.finish().unwrap()).expect("decode");
        assert_eq!(u.seqs[0], vec![0, 1, 2, 3, 0]);
        assert_eq!(u.seqs[1], vec![3]);
    }

    #[test]
    fn payload_pool_interns_duplicates() {
        // Two identical Send bodies (different comm) share nothing, but
        // genuinely equal records do: table entries 0 and 2 differ only in
        // comm, so force a true duplicate and check the pool stays flat.
        let mut t = sample();
        let dup = t.table[0].clone();
        t.table.push(dup);
        let with_dup = store_to_bytes(&t).len();
        t.table.push(EventRecord::Comm(CommEvent::Send {
            rel: 9,
            tag: 9,
            bytes: 999,
            comm: 9,
        }));
        let with_unique = store_to_bytes(&t).len();
        // The duplicate added only a column slot (9 bytes with padding);
        // the unique event added a column slot *and* pool bytes.
        assert!(with_unique > with_dup + 8);
    }

    #[test]
    fn rejects_corruption_structurally() {
        let bytes = store_to_bytes(&sample());
        // Truncations at every section boundary and a few interior points.
        for cut in [0usize, 7, 16, 31, 40, bytes.len() - FOOTER_BYTES, bytes.len() - 1] {
            assert!(decode_store(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0x40;
        assert!(matches!(decode_store(&b), Err(StoreError::Wire(WireError::BadMagic))));
        // Flip one id bit: the chunk checksum must catch it.
        let mut b = bytes.clone();
        let ids_somewhere = b.len() - FOOTER_BYTES - 3;
        b[ids_somewhere] ^= 1;
        assert!(matches!(decode_store(&b), Err(StoreError::ChecksumMismatch { .. })));
        // Corrupt a chunk rank to out-of-range. The chunk region starts
        // where the footer of the same store without sequences would.
        let no_seqs = GlobalTrace { seqs: vec![vec![]; 3], ..sample() };
        let first_chunk_header = store_to_bytes(&no_seqs).len() - FOOTER_BYTES;
        let mut b = bytes.clone();
        b[first_chunk_header + 4..first_chunk_header + 8]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_store(&b),
            Err(StoreError::BadChunk { reason: "rank out of range", .. })
        ));
        // Corrupt the footer id count.
        let mut b = bytes;
        let n = b.len();
        b[n - 8..n].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_store(&b), Err(StoreError::BadFooter(_))));
    }

    #[test]
    fn rejects_oversized_rank_count() {
        // Bit 7 of header byte 15 is the top bit of `nranks`: 2³¹ ranks
        // would be ~51 GB of empty sequences if allocated before a check.
        let mut b = store_to_bytes(&sample());
        b[15] ^= 0x80;
        assert_eq!(
            decode_store(&b).map(|t| t.nranks),
            Err(StoreError::BadHeader("rank count exceeds the store limit"))
        );
    }

    /// Deterministic LCG, as in the grammar crate's reference cross-check.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, m: u64) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) % m.max(1)
        }
    }

    /// A random trace: 1–5 ranks with uneven (possibly empty) sequences
    /// over a table drawn, with duplicates, from [`sample`]'s records.
    fn random_trace(rng: &mut Lcg) -> GlobalTrace {
        let records = sample().table;
        let table: Vec<EventRecord> = (0..1 + rng.next(10))
            .map(|_| records[rng.next(records.len() as u64) as usize].clone())
            .collect();
        let nranks = 1 + rng.next(5) as usize;
        let n = table.len() as u64;
        let seqs = (0..nranks)
            .map(|_| (0..rng.next(200)).map(|_| rng.next(n) as u32).collect())
            .collect();
        GlobalTrace { nranks, table, seqs, raw_bytes: rng.next(1 << 30) as usize, merge_rounds: 2 }
    }

    #[test]
    fn chunking_is_reader_invariant() {
        let mut rng = Lcg(0x5349_4553_5443_3101);
        for case in 0..200 {
            let t = random_trace(&mut rng);
            let cut = 1 + rng.next(64) as usize;
            let mut w =
                StoreWriter::new(Vec::new(), t.nranks, t.merge_rounds, t.raw_bytes, &t.table)
                    .unwrap();
            for (rank, seq) in t.seqs.iter().enumerate() {
                for piece in seq.chunks(cut) {
                    w.append_chunk(rank as u32, piece).unwrap();
                }
            }
            let u = decode_store(&w.finish().unwrap()).expect("decode");
            assert_eq!(u.seqs, t.seqs, "case {case}, chunks of {cut}");
            assert_eq!(u.table, t.table, "case {case}");
        }
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let mut rng = Lcg(0x5349_4553_5443_3102);
        for case in 0..20 {
            let bytes = store_to_bytes(&random_trace(&mut rng));
            for cut in 0..bytes.len() {
                assert!(decode_store(&bytes[..cut]).is_err(), "case {case}, cut {cut}");
            }
        }
    }

    #[test]
    fn single_bit_flips_never_panic() {
        // Every flip either decodes (dead padding, `raw_bytes`, a payload
        // byte that still parses) or returns an error; a panic fails here.
        let bytes = store_to_bytes(&sample());
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[pos] ^= 1 << bit;
                let _ = decode_store(&b);
            }
        }
    }

    #[test]
    fn empty_table_and_empty_seqs() {
        let t = GlobalTrace {
            nranks: 1,
            table: vec![],
            seqs: vec![vec![]],
            raw_bytes: 0,
            merge_rounds: 0,
        };
        let u = decode_store(&store_to_bytes(&t)).expect("decode");
        assert_eq!(u.table, vec![]);
        assert_eq!(u.seqs[0], Vec::<u32>::new());
    }
}

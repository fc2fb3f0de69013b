//! Binary serialization of [`ProxyProgram`]s (`.siesta` files).
//!
//! A generated proxy-app is an artifact users ship around: generate once on
//! the traced system, replay or emit C anywhere. The format is a simple
//! little-endian tag-length-value encoding — no external format crates —
//! with a magic header and version byte for forward compatibility.

use siesta_grammar::{MainSym, MergedMain, RSym, RankSet, Sym};
use siesta_perfmodel::CounterVec;
use siesta_proxy::{ComputeProxy, NUM_BLOCKS};
use siesta_trace::wire::{get_event, put_event, Reader, Writer};

use crate::ir::{ProxyProgram, TerminalOp};

/// Re-exported so `codegen::wire::WireError` keeps working.
pub use siesta_trace::wire::WireError;

const MAGIC: &[u8; 8] = b"SIESTA1\0";

fn put_sym(w: &mut Writer, s: Sym) {
    match s {
        Sym::T(t) => {
            w.u8(0);
            w.u32(t);
        }
        Sym::N(n) => {
            w.u8(1);
            w.u32(n);
        }
    }
}

fn get_sym(r: &mut Reader) -> Result<Sym, WireError> {
    match r.u8()? {
        0 => Ok(Sym::T(r.u32()?)),
        1 => Ok(Sym::N(r.u32()?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_rankset(w: &mut Writer, s: &RankSet) {
    let ranges = s.ranges();
    w.u32(ranges.len() as u32);
    for &(a, b) in ranges {
        w.u32(a);
        w.u32(b);
    }
}

/// Read a rank set of a program with `nranks` ranks. Every range must be
/// ordered and inside `0..nranks`; the ranges are kept as ranges, so a
/// corrupt `[0, u32::MAX]` costs eight bytes, not four billion ids.
fn get_rankset(r: &mut Reader, nranks: usize) -> Result<RankSet, WireError> {
    let n = r.u32()? as usize;
    let mut ranges = Vec::new();
    for _ in 0..n {
        let (a, b) = (r.u32()?, r.u32()?);
        if a > b || b as usize >= nranks {
            return Err(WireError::BadRankRange);
        }
        ranges.push((a, b));
    }
    Ok(RankSet::from_ranges(ranges))
}

// ---------------------------------------------------------------------
// Whole-program encode/decode
// ---------------------------------------------------------------------

/// Serialize a proxy program to bytes.
pub fn to_bytes(p: &ProxyProgram) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u8(1); // version
    w.u32(p.nranks as u32);
    w.f64(p.scale);
    w.str(&p.generated_on);

    w.u32(p.terminals.len() as u32);
    for t in &p.terminals {
        match t {
            TerminalOp::Comm(e) => {
                w.u8(0);
                put_event(&mut w, e);
            }
            TerminalOp::Compute { proxy, target } => {
                w.u8(1);
                for rep in proxy.reps {
                    w.u64(rep);
                }
                for v in target.as_array() {
                    w.f64(v);
                }
            }
        }
    }

    w.u32(p.rules.len() as u32);
    for body in &p.rules {
        w.u32(body.len() as u32);
        for rs in body {
            put_sym(&mut w, rs.sym);
            w.u64(rs.exp);
        }
    }

    w.u32(p.mains.len() as u32);
    for m in &p.mains {
        put_rankset(&mut w, &m.ranks);
        w.u32(m.body.len() as u32);
        for ms in &m.body {
            put_sym(&mut w, ms.sym);
            w.u64(ms.exp);
            put_rankset(&mut w, &ms.ranks);
        }
    }
    w.buf
}

/// Deserialize a proxy program.
pub fn from_bytes(bytes: &[u8]) -> Result<ProxyProgram, WireError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != 1 {
        return Err(WireError::UnsupportedVersion(version));
    }
    let nranks = r.u32()? as usize;
    let scale = r.f64()?;
    let generated_on = r.str()?;

    let n_terminals = r.u32()? as usize;
    let mut terminals = Vec::with_capacity(n_terminals.min(r.remaining()));
    for _ in 0..n_terminals {
        match r.u8()? {
            0 => terminals.push(TerminalOp::Comm(get_event(&mut r)?)),
            1 => {
                let mut reps = [0u64; NUM_BLOCKS];
                for rep in reps.iter_mut() {
                    *rep = r.u64()?;
                }
                let mut arr = [0.0f64; 6];
                for v in arr.iter_mut() {
                    *v = r.f64()?;
                }
                terminals.push(TerminalOp::Compute {
                    proxy: ComputeProxy { reps },
                    target: CounterVec::from_array(arr),
                });
            }
            t => return Err(WireError::BadTag(t)),
        }
    }

    let n_rules = r.u32()? as usize;
    let mut rules = Vec::with_capacity(n_rules.min(r.remaining()));
    for _ in 0..n_rules {
        let len = r.u32()? as usize;
        let mut body = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            let sym = get_sym(&mut r)?;
            let exp = r.u64()?;
            body.push(RSym::new(sym, exp));
        }
        rules.push(body);
    }

    let n_mains = r.u32()? as usize;
    let mut mains = Vec::with_capacity(n_mains.min(r.remaining()));
    for _ in 0..n_mains {
        let ranks = get_rankset(&mut r, nranks)?;
        let len = r.u32()? as usize;
        let mut body = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            let sym = get_sym(&mut r)?;
            let exp = r.u64()?;
            let sym_ranks = get_rankset(&mut r, nranks)?;
            body.push(MainSym { sym, exp, ranks: sym_ranks });
        }
        mains.push(MergedMain { ranks, body });
    }

    Ok(ProxyProgram { nranks, terminals, rules, mains, scale, generated_on })
}

/// Save to a file.
pub fn save(p: &ProxyProgram, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(p))
}

/// Load from a file.
pub fn load(path: &std::path::Path) -> Result<ProxyProgram, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    Ok(from_bytes(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_trace::CommEvent;

    fn toy() -> ProxyProgram {
        let mut proxy = ComputeProxy::IDLE;
        proxy.reps = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 55];
        ProxyProgram {
            nranks: 4,
            terminals: vec![
                TerminalOp::Comm(CommEvent::Send { rel: 1, tag: 7, bytes: 1024, comm: 0 }),
                TerminalOp::Compute {
                    proxy,
                    target: CounterVec::new(1.5, 2.5, 3.5, 4.5, 5.5, 6.5),
                },
                TerminalOp::Comm(CommEvent::Alltoallv {
                    comm: 0,
                    send_counts: vec![1, 2, 3, 4],
                    recv_counts: vec![4, 3, 2, 1],
                }),
                TerminalOp::Comm(CommEvent::CommSplit {
                    parent: 0,
                    color: -1,
                    key: 3,
                    result: None,
                }),
                TerminalOp::Comm(CommEvent::Waitall { reqs: vec![0, 1, 2] }),
            ],
            rules: vec![vec![RSym::new(Sym::T(1), 2), RSym::new(Sym::T(0), 1)]],
            mains: vec![MergedMain {
                ranks: RankSet::all(4),
                body: vec![
                    MainSym { sym: Sym::N(0), exp: 10, ranks: RankSet::all(4) },
                    MainSym { sym: Sym::T(2), exp: 1, ranks: RankSet::from_iter([0, 2]) },
                ],
            }],
            scale: 10.0,
            generated_on: "A/openmpi".into(),
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let p = toy();
        let bytes = to_bytes(&p);
        let q = from_bytes(&bytes).expect("decode");
        assert_eq!(p, q);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(from_bytes(b"not a siesta file"), Err(WireError::BadMagic));
        let bytes = to_bytes(&toy());
        for cut in [8usize, 9, 20, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_rank_ranges_outside_the_program() {
        // One main over `ranks` with an empty body; its rank set's two
        // bounds are the last 8 bytes before the body length.
        let encode = |ranks: RankSet| {
            to_bytes(&ProxyProgram {
                terminals: vec![],
                rules: vec![],
                mains: vec![MergedMain { ranks, body: vec![] }],
                ..toy()
            })
        };
        // `[0, u32::MAX]` would expand to 2³² ids (17 GB) if decoded by
        // enumeration; `[2, 4]` reaches past the 4 ranks.
        for (a, b) in [(0, u32::MAX), (2, 4)] {
            let bytes = encode(RankSet::from_ranges(vec![(a, b)]));
            assert_eq!(from_bytes(&bytes), Err(WireError::BadRankRange), "[{a}, {b}]");
        }
        let mut bytes = encode(RankSet::from_ranges(vec![(1, 2)]));
        let n = bytes.len();
        bytes[n - 12..n - 8].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(from_bytes(&bytes), Err(WireError::BadRankRange), "reversed range");
    }

    #[test]
    fn oversized_list_lengths_are_truncation_errors() {
        // A terminal count of u32::MAX must fail on the missing bytes, not
        // pre-size a vector for four billion terminals.
        let mut bytes = to_bytes(&toy());
        let at = 8 + 1 + 4 + 8 + 4 + toy().generated_on.len();
        assert_eq!(bytes[at..at + 4], 5u32.to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(from_bytes(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn rejects_future_versions() {
        let mut bytes = to_bytes(&toy());
        bytes[8] = 9;
        assert_eq!(from_bytes(&bytes), Err(WireError::UnsupportedVersion(9)));
    }

    #[test]
    fn file_round_trip() {
        let p = toy();
        let dir = std::env::temp_dir();
        let path = dir.join("siesta_wire_test.siesta");
        save(&p, &path).unwrap();
        let q = load(&path).unwrap();
        assert_eq!(p, q);
        std::fs::remove_file(&path).ok();
    }
}

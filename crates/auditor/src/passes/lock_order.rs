//! P1 — lock discipline.
//!
//! Two rules, both driven by the normative acquisition-order table (also
//! reproduced in DESIGN.md §8 — this table is the source of truth):
//!
//! | rank | class      | receiver fields        | held across device I/O? |
//! |------|------------|------------------------|-------------------------|
//! | 1    | connreg    | `conns`, `queue`       | allowed (accept/drain)  |
//! | 2    | router     | `router`               | allowed (rebalance)     |
//! | 3    | shard      | `index`, `inner`       | allowed (write path)    |
//! | 4    | registry   | `scores`               | allowed (batch commit)  |
//! | 5    | routercell | `router_stripe`        | allowed (publish)       |
//! | 6    | wal        | `wal`                  | forbidden (log writer excepted via pragma) |
//! | 7    | poolshard  | `pool_shard`           | forbidden               |
//! | 8    | pool       | `pool`                 | forbidden               |
//! | 9    | dir        | `files`                | forbidden               |
//! | 10   | slab       | `slots`                | forbidden               |
//! | 11   | page       | `slot`, `s`            | forbidden               |
//! | 12   | freelist   | `free_list`            | forbidden               |
//!
//! **Rule A (ordering):** while a guard of rank `r` is live, acquiring a lock
//! of rank `< r` is flagged; so is re-acquiring a class that does not permit
//! same-class nesting (only `shard` does, under the ascending-shard-id
//! convention of the batch/rebalance paths).
//!
//! **Rule B (no I/O while held):** while a guard of an emsim-internal class
//! (wal and below) is live, any call into a device I/O entry point
//! (`with`, `with_mut`, `alloc`, `free`, `record_*`, `open_file`,
//! `drop_cache`), a raw file verb of the durable store (`write_all_at`,
//! `read_exact_at`, `sync_all`, `sync_data`, `set_len`) or a
//! rebuild/rebalance entry point (`rebuild*`, `bulk_build*`, `bulk_load*`,
//! `rebalance*`) is flagged: the callee either re-takes the pool mutex
//! (self-deadlock with std's non-reentrant locks) or parks every writer
//! behind a disk round trip. The op log's own frame append-and-sync is
//! the single sanctioned exception, via pragma.
//!
//! The analysis is intra-procedural and lexical. A guard counts as *held*
//! when it is `let`-bound (including `let guards = ….collect();` vectors of
//! guards); an acquisition consumed within one statement is a *temporary* —
//! it still participates in ordering checks at its acquisition point but is
//! considered released at the end of the statement. `drop(name)` releases a
//! held guard early. Locks whose receiver field is not in the table are
//! outside the discipline and ignored.

use crate::findings::{Finding, Pass, Severity};
use crate::lex::{Tok, TokKind};

/// One class in the acquisition-order table.
struct LockClass {
    name: &'static str,
    rank: u8,
    receivers: &'static [&'static str],
    /// Whether same-class nested acquisition is sanctioned (shards: ascending
    /// shard id).
    same_ok: bool,
    /// Whether holding a guard of this class across device I/O / rebuild
    /// entry points is forbidden (Rule B).
    io_forbidden: bool,
}

/// The normative table. Keep in sync with DESIGN.md §8.
const TABLE: &[LockClass] = &[
    // Serving-plane mutexes in `crates/server`: the connection registry
    // (`conns`) and the per-write completion slot (`queue`). They sit above
    // every index-structure lock — a connection handler or the committer may
    // take them and then call into the facade (which acquires router/shard/…),
    // but no index code path may ever reach back up into the serving plane.
    // Nested acquisition across the two receivers never happens (the registry
    // is swept only with no slot held), so same-class nesting stays forbidden.
    LockClass {
        name: "connreg",
        rank: 1,
        receivers: &["conns", "queue"],
        same_ok: false,
        io_forbidden: false,
    },
    LockClass {
        name: "router",
        rank: 2,
        receivers: &["router"],
        same_ok: false,
        io_forbidden: false,
    },
    LockClass {
        name: "shard",
        rank: 3,
        receivers: &["index", "inner"],
        same_ok: true,
        io_forbidden: false,
    },
    LockClass {
        name: "registry",
        rank: 4,
        receivers: &["scores"],
        same_ok: false,
        io_forbidden: false,
    },
    // The sharded router's copy-on-write publish cell: one padded RwLock per
    // stripe. Snapshot loads hold a stripe for an `Arc` clone only; the
    // publish path rewrites the stripes in iteration order while holding
    // every shard write lock, hence the rank below shard/registry. Nested
    // stripe acquisition never happens (one stripe at a time), so same-class
    // nesting stays forbidden.
    LockClass {
        name: "routercell",
        rank: 5,
        receivers: &["router_stripe"],
        same_ok: false,
        io_forbidden: false,
    },
    // The op-log mutex of a durable index's store (`DurableStore.wal`),
    // held for a whole commit. Rule B: no device I/O while it is held. The
    // single exception is the log writer itself (the frame append-and-sync
    // in `DurableStore::commit`), sanctioned via pragma. Sits above the
    // emsim pool locks: the store never touches the simulated device.
    LockClass {
        name: "wal",
        rank: 6,
        receivers: &["wal"],
        same_ok: false,
        io_forbidden: true,
    },
    // One shard of the emsim buffer pool (a CLOCK ring behind a mutex).
    // Address-hashed: every logical access locks exactly one shard, and no
    // code path may hold two (same_ok stays false) or re-enter the device
    // while one is held.
    LockClass {
        name: "poolshard",
        rank: 7,
        receivers: &["pool_shard"],
        same_ok: false,
        io_forbidden: true,
    },
    LockClass {
        name: "pool",
        rank: 8,
        receivers: &["pool"],
        same_ok: false,
        io_forbidden: true,
    },
    LockClass {
        name: "dir",
        rank: 9,
        receivers: &["files"],
        same_ok: false,
        io_forbidden: true,
    },
    LockClass {
        name: "slab",
        rank: 10,
        receivers: &["slots"],
        same_ok: false,
        io_forbidden: true,
    },
    LockClass {
        name: "page",
        rank: 11,
        receivers: &["slot", "s"],
        same_ok: false,
        io_forbidden: true,
    },
    LockClass {
        name: "freelist",
        rank: 12,
        receivers: &["free_list"],
        same_ok: false,
        io_forbidden: true,
    },
];

/// Device I/O entry points (method-call position). Deliberately excludes
/// generic names like `get`/`put`/`flush` that collide with std collections
/// and guard methods.
const IO_ENTRIES: &[&str] = &[
    "with",
    "with_mut",
    "alloc",
    "free",
    "record_access",
    "record_alloc",
    "record_free",
    "open_file",
    "drop_cache",
    // Raw file verbs of the durable store: physical I/O under the wal
    // mutex (or any pool lock) blocks every writer behind a disk round
    // trip — only the log writer's own append is sanctioned, via pragma.
    "write_all_at",
    "read_exact_at",
    "sync_all",
    "sync_data",
    "set_len",
];

/// Rebuild / rebalance entry-point name prefixes.
const REBUILD_PREFIXES: &[&str] = &["rebuild", "bulk_build", "bulk_load", "rebalance"];

const LOCK_METHODS: &[&str] = &["read", "write", "lock"];

fn classify(receiver: &str) -> Option<&'static LockClass> {
    TABLE.iter().find(|c| c.receivers.contains(&receiver))
}

fn order_spec() -> String {
    TABLE
        .iter()
        .map(|c| c.name)
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[derive(Debug)]
struct Held {
    class_idx: usize,
    /// Binding name (for `drop(name)` release).
    name: String,
    /// Brace depth at acquisition; released when depth drops below this.
    depth: i32,
    line: u32,
}

/// Run the pass over one file's token stream.
pub fn run(file: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    let mut stmt_start: usize = 0;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            stmt_start = i + 1;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
            stmt_start = i + 1;
        } else if t.is_punct(';') {
            stmt_start = i + 1;
        } else if t.is_ident("drop") && i + 3 < toks.len() && toks[i + 1].is_punct('(') {
            if toks[i + 2].kind == TokKind::Ident && toks[i + 3].is_punct(')') {
                let name = &toks[i + 2].text;
                held.retain(|h| &h.name != name);
            }
        } else if t.kind == TokKind::Ident
            && LOCK_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct('.')
            && i + 2 < toks.len()
            && toks[i + 1].is_punct('(')
            && toks[i + 2].is_punct(')')
        {
            // `<receiver>.read()` / `.write()` / `.lock()`.
            let receiver = &toks[i - 2];
            if receiver.kind == TokKind::Ident {
                if let Some(class) = classify(&receiver.text) {
                    check_order(file, t.line, class, &held, findings);
                    if let Some(name) = held_binding(toks, stmt_start, i) {
                        held.push(Held {
                            class_idx: TABLE.iter().position(|c| c.rank == class.rank).unwrap_or(0),
                            name,
                            depth,
                            line: t.line,
                        });
                    }
                }
            }
            i += 3;
            continue;
        } else if t.kind == TokKind::Ident
            && i >= 1
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
            && is_io_entry(&t.text)
        {
            // Rule B: a device I/O or rebuild entry point invoked while an
            // emsim-internal guard is live.
            for h in &held {
                let class = &TABLE[h.class_idx];
                if class.io_forbidden {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        pass: Pass::LockOrder,
                        severity: Severity::Deny,
                        message: format!(
                            "call to `{}()` while `{}` guard `{}` (acquired line {}) is held; \
                             the callee re-enters the device locks — release the guard first",
                            t.text, class.name, h.name, h.line
                        ),
                    });
                }
            }
        }
        i += 1;
    }
}

fn is_io_entry(name: &str) -> bool {
    IO_ENTRIES.contains(&name) || REBUILD_PREFIXES.iter().any(|p| name.starts_with(p))
}

fn check_order(
    file: &str,
    line: u32,
    class: &LockClass,
    held: &[Held],
    findings: &mut Vec<Finding>,
) {
    for h in held {
        let hc = &TABLE[h.class_idx];
        if hc.rank > class.rank {
            findings.push(Finding {
                file: file.to_string(),
                line,
                pass: Pass::LockOrder,
                severity: Severity::Deny,
                message: format!(
                    "acquires `{}` (rank {}) while `{}` guard `{}` (rank {}, line {}) is held; \
                     acquisition order is {}",
                    class.name,
                    class.rank,
                    hc.name,
                    h.name,
                    hc.rank,
                    h.line,
                    order_spec()
                ),
            });
        } else if hc.rank == class.rank && !class.same_ok {
            findings.push(Finding {
                file: file.to_string(),
                line,
                pass: Pass::LockOrder,
                severity: Severity::Deny,
                message: format!(
                    "nested same-class acquisition of `{}` while guard `{}` (line {}) is held; \
                     `{}` does not permit same-class nesting",
                    class.name, h.name, h.line, class.name
                ),
            });
        }
    }
}

/// If the acquisition at token index `acq` (the lock-method ident) is
/// `let`-bound so that the guard outlives the statement, return the binding
/// name. Handles `let [mut] g = recv.lock().unwrap();`, an optional
/// `.expect("…")`, and the `let guards = ….collect();` multi-guard form.
fn held_binding(toks: &[Tok], stmt_start: usize, acq: usize) -> Option<String> {
    // Statement must start with `let [mut] <name> =` (destructuring patterns
    // are treated as temporaries — a conservative under-approximation).
    if !toks.get(stmt_start)?.is_ident("let") {
        return None;
    }
    let mut j = stmt_start + 1;
    if toks.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // `let x: Vec<_> = …` — skip a type ascription up to the `=`.
    let mut k = j + 1;
    let mut angle = 0i32;
    loop {
        let t = toks.get(k)?;
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('=') && angle <= 0 {
            // `let n = *recv.lock().unwrap();` copies the value out — the
            // guard is a temporary, not held by `n`.
            if toks.get(k + 1).is_some_and(|n| n.is_punct('*')) {
                return None;
            }
            break;
        } else if t.is_punct(';') {
            return None;
        }
        k += 1;
        if k > acq {
            return None;
        }
    }
    // Walk the chain after `read()` / `lock()`: skip `.unwrap()` /
    // `.expect(…)`; if the statement then ends, the binding is the guard.
    let mut p = acq + 3; // past `( )`
    loop {
        let t = toks.get(p)?;
        if t.is_punct(';') {
            return Some(name);
        }
        if t.is_punct('.')
            && toks
                .get(p + 1)
                .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
        {
            // Skip `.unwrap()` or `.expect(<one literal>)`.
            let open = p + 2;
            if !toks.get(open)?.is_punct('(') {
                return None;
            }
            let mut d = 0i32;
            let mut q = open;
            loop {
                let u = toks.get(q)?;
                if u.is_punct('(') {
                    d += 1;
                } else if u.is_punct(')') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                q += 1;
            }
            p = q + 1;
            continue;
        }
        break;
    }
    // Not a direct binding: the guard may still be held if the statement is a
    // `let … = iter.map(|s| s.index.write().unwrap()).collect();` — scan to
    // the statement's `;` and accept when the final call is `collect`.
    let mut q = acq;
    let mut d = 0i32;
    let mut last_call: Option<&str> = None;
    while let Some(t) = toks.get(q) {
        if t.is_punct('(') || t.is_punct('[') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            d -= 1;
        } else if t.is_punct(';') && d <= 0 {
            break;
        } else if t.kind == TokKind::Ident && toks.get(q + 1).is_some_and(|n| n.is_punct('(')) {
            last_call = Some(&t.text);
        }
        q += 1;
    }
    (last_call == Some("collect")).then_some(name)
}

//! Seeded inputs: the GtoPdb-shaped dump, the query shapes of the four
//! workloads, the curator's transactions, and — because the program under
//! test receives only generated inputs — the expected answer count of
//! every query, computed here by a small evaluator over the generated
//! tables.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// splitmix64: small, seedable, and good enough to spread keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Val {
    Int(i64),
    Text(String),
}

/// Relation name, then `(attribute, is_int)` per column — the typed
/// headers `citesys ingest` expects.
type Schema = (&'static str, &'static [(&'static str, bool)]);

const SCHEMAS: [Schema; 8] = [
    (
        "Family",
        &[("FID", true), ("FName", false), ("Desc", false)],
    ),
    ("FamilyIntro", &[("FID", true), ("Text", false)]),
    ("Committee", &[("FID", true), ("PName", false)]),
    ("Target", &[("TID", true), ("TName", false), ("FID", true)]),
    ("TargetCurator", &[("TID", true), ("CID", true)]),
    (
        "Contributor",
        &[("CID", true), ("CName", false), ("Affil", false)],
    ),
    (
        "Interaction",
        &[("TID", true), ("LID", true), ("Affinity", true)],
    ),
    (
        "Ligand",
        &[("LID", true), ("LName", false), ("LType", false)],
    ),
];

/// Sizes of the real GtoPdb (≈50 000 tuples in total).
const FAMILIES: i64 = 1600;
const TARGETS_PER_FAMILY: i64 = 4;
pub const TARGETS: i64 = FAMILIES * TARGETS_PER_FAMILY;
const LIGANDS: i64 = 2000;
const CONTRIBUTORS: i64 = 800;
const COMMITTEE_PER_FAMILY: i64 = 3;
const CURATORS_PER_TARGET: i64 = 2;
const INTERACTIONS_PER_TARGET: i64 = 3;

const FIRST: [&str; 12] = [
    "Alice", "Bob", "Carol", "Dave", "Eve", "Frank", "Grace", "Heidi", "Ivan", "Judy", "Ken",
    "Laura",
];
const LAST: [&str; 12] = [
    "Adams", "Baker", "Clark", "Davis", "Evans", "Foster", "Gray", "Hill", "Irwin", "Jones",
    "Klein", "Lewis",
];
const RECEPTORS: [&str; 8] = [
    "Calcitonin",
    "Dopamine",
    "Adenosine",
    "Glucagon",
    "Histamine",
    "Melatonin",
    "Opioid",
    "Orexin",
];
const LIGAND_TYPES: [&str; 4] = ["peptide", "small molecule", "antibody", "natural product"];

/// The generated instance plus an index on every integer column, so the
/// expected-count evaluator can follow keys and foreign keys.
pub struct Dataset {
    tables: Vec<Vec<Vec<Val>>>,
    index: HashMap<(usize, usize), HashMap<i64, Vec<u32>>>,
}

fn table_id(rel: &str) -> usize {
    SCHEMAS
        .iter()
        .position(|(name, _)| *name == rel)
        .expect("templates only name generated relations")
}

fn person(rng: &mut Rng) -> String {
    format!(
        "{} {}",
        FIRST[rng.below(12) as usize],
        LAST[rng.below(12) as usize]
    )
}

/// `k` distinct values in `1..=n`, seeded.
fn distinct(rng: &mut Rng, k: i64, n: i64) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::new();
    while (out.len() as i64) < k {
        let v = 1 + rng.below(n as u64) as i64;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

impl Dataset {
    pub fn generate(seed: u64) -> Dataset {
        let mut rng = Rng::new(seed ^ 0x6774_6f70_6462);
        let mut tables: Vec<Vec<Vec<Val>>> = vec![Vec::new(); SCHEMAS.len()];
        let int = Val::Int;
        let text = |s: String| Val::Text(s);
        for fid in 1..=FAMILIES {
            let receptor = RECEPTORS[rng.below(8) as usize];
            let fname = format!("{receptor} receptor family {fid}");
            tables[table_id("Family")].push(vec![
                int(fid),
                text(fname.clone()),
                text(format!(
                    "Description of family {fid}, revision {}",
                    rng.below(90)
                )),
            ]);
            tables[table_id("FamilyIntro")].push(vec![
                int(fid),
                text(format!("Introductory text for family {fid} ({receptor})")),
            ]);
            let mut members: Vec<String> = Vec::new();
            while (members.len() as i64) < COMMITTEE_PER_FAMILY {
                let p = person(&mut rng);
                if !members.contains(&p) {
                    members.push(p);
                }
            }
            for p in members {
                tables[table_id("Committee")].push(vec![int(fid), text(p)]);
            }
            for k in 0..TARGETS_PER_FAMILY {
                let tid = (fid - 1) * TARGETS_PER_FAMILY + k + 1;
                tables[table_id("Target")].push(vec![
                    int(tid),
                    text(format!("{fname} target {tid}")),
                    int(fid),
                ]);
                for cid in distinct(&mut rng, CURATORS_PER_TARGET, CONTRIBUTORS) {
                    tables[table_id("TargetCurator")].push(vec![int(tid), int(cid)]);
                }
                for lid in distinct(&mut rng, INTERACTIONS_PER_TARGET, LIGANDS) {
                    tables[table_id("Interaction")].push(vec![
                        int(tid),
                        int(lid),
                        int(rng.below(1000) as i64),
                    ]);
                }
            }
        }
        for cid in 1..=CONTRIBUTORS {
            tables[table_id("Contributor")].push(vec![
                int(cid),
                text(format!("{} ({cid})", person(&mut rng))),
                text(format!("University {}", rng.below(40))),
            ]);
        }
        for lid in 1..=LIGANDS {
            tables[table_id("Ligand")].push(vec![
                int(lid),
                text(format!("ligand-{lid}")),
                text(LIGAND_TYPES[rng.below(4) as usize].to_string()),
            ]);
        }
        let mut index: HashMap<(usize, usize), HashMap<i64, Vec<u32>>> = HashMap::new();
        for (t, rows) in tables.iter().enumerate() {
            for (c, (_, is_int)) in SCHEMAS[t].1.iter().enumerate() {
                if !is_int {
                    continue;
                }
                let col = index.entry((t, c)).or_default();
                for (r, row) in rows.iter().enumerate() {
                    if let Val::Int(v) = row[c] {
                        col.entry(v).or_default().push(r as u32);
                    }
                }
            }
        }
        Dataset { tables, index }
    }

    pub fn tuples(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Writes one `<Relation>.csv` per relation with typed headers.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for (t, (name, attrs)) in SCHEMAS.iter().enumerate() {
            let mut w = BufWriter::new(fs::File::create(dir.join(format!("{name}.csv")))?);
            let header: Vec<String> = attrs
                .iter()
                .map(|(a, is_int)| format!("\"{a}:{}\"", if *is_int { "int" } else { "text" }))
                .collect();
            writeln!(w, "{}", header.join(","))?;
            for row in &self.tables[t] {
                let mut line = String::new();
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    match v {
                        Val::Int(n) => write!(line, "{n}").expect("write to String"),
                        Val::Text(s) => write!(line, "\"{s}\"").expect("write to String"),
                    }
                }
                writeln!(w, "{line}")?;
            }
            w.flush()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Term {
    Var(&'static str),
    Const(i64),
}

/// A conjunctive query over the generated relations.
#[derive(Clone, Debug)]
pub struct Query {
    head: Vec<&'static str>,
    atoms: Vec<(&'static str, Vec<Term>)>,
}

impl Query {
    /// The rule text as the `cite` command takes it.
    pub fn text(&self) -> String {
        let mut s = format!("Q({}) :- ", self.head.join(", "));
        for (i, (rel, terms)) in self.atoms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let terms: Vec<String> = terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => (*v).to_string(),
                    Term::Const(c) => c.to_string(),
                })
                .collect();
            write!(s, "{rel}({})", terms.join(", ")).expect("write to String");
        }
        s
    }

    /// Number of distinct answer tuples over `data` (set semantics).
    pub fn count(&self, data: &Dataset) -> usize {
        let mut out: HashSet<Vec<Val>> = HashSet::new();
        let mut binding: Vec<(&'static str, Val)> = Vec::new();
        self.join(data, 0, &mut binding, &mut out);
        out.len()
    }

    fn join(
        &self,
        data: &Dataset,
        at: usize,
        binding: &mut Vec<(&'static str, Val)>,
        out: &mut HashSet<Vec<Val>>,
    ) {
        let Some((rel, terms)) = self.atoms.get(at) else {
            let row = self
                .head
                .iter()
                .map(|v| bound(binding, &Term::Var(v)).expect("head variables occur in the body"))
                .collect();
            out.insert(row);
            return;
        };
        let t = table_id(rel);
        let rows = &data.tables[t];
        // Probe an integer-column index when any such column is bound.
        let probe = terms.iter().enumerate().find_map(|(c, term)| {
            let Some(Val::Int(v)) = bound(binding, term) else {
                return None;
            };
            data.index.get(&(t, c)).map(|col| col.get(&v))
        });
        let all: Vec<u32>;
        let candidates: &[u32] = match probe {
            Some(Some(hits)) => hits,
            Some(None) => &[],
            None => {
                all = (0..rows.len() as u32).collect();
                &all
            }
        };
        for &r in candidates {
            let mark = binding.len();
            let mut matches = true;
            for (term, val) in terms.iter().zip(&rows[r as usize]) {
                match (bound(binding, term), term) {
                    (Some(b), _) => {
                        if b != *val {
                            matches = false;
                            break;
                        }
                    }
                    (None, Term::Var(v)) => binding.push((v, val.clone())),
                    (None, Term::Const(_)) => unreachable!("constants are always bound"),
                }
            }
            if matches {
                self.join(data, at + 1, binding, out);
            }
            binding.truncate(mark);
        }
    }
}

/// The value `term` has under `binding`, if any.
fn bound(binding: &[(&'static str, Val)], term: &Term) -> Option<Val> {
    match term {
        Term::Const(c) => Some(Val::Int(*c)),
        Term::Var(v) => binding
            .iter()
            .find(|(name, _)| name == v)
            .map(|(_, val)| val.clone()),
    }
}

/// A join template: atoms over shared variable names, and the variables
/// an ad-hoc shape may pin to a constant.
struct Template {
    atoms: &'static [(&'static str, &'static [&'static str])],
    anchors: &'static [&'static str],
}

const FAMILY: (&str, &[&str]) = ("Family", &["FID", "FName", "Desc"]);
const INTRO: (&str, &[&str]) = ("FamilyIntro", &["FID", "Text"]);
const COMMITTEE: (&str, &[&str]) = ("Committee", &["FID", "PName"]);
const TARGET: (&str, &[&str]) = ("Target", &["TID", "TName", "FID"]);
const CURATOR: (&str, &[&str]) = ("TargetCurator", &["TID", "CID"]);
const CONTRIBUTOR: (&str, &[&str]) = ("Contributor", &["CID", "CName", "Affil"]);
const INTERACTION: (&str, &[&str]) = ("Interaction", &["TID", "LID", "Affinity"]);
const LIGAND: (&str, &[&str]) = ("Ligand", &["LID", "LName", "LType"]);

/// Foreign-key chains of length 1 to 4. Every atom after the first joins
/// a variable an earlier atom binds, so evaluation follows indexes.
const TEMPLATES: [Template; 20] = [
    Template {
        atoms: &[FAMILY],
        anchors: &["FID"],
    },
    Template {
        atoms: &[INTRO],
        anchors: &["FID"],
    },
    Template {
        atoms: &[COMMITTEE],
        anchors: &["FID"],
    },
    Template {
        atoms: &[TARGET],
        anchors: &["TID", "FID"],
    },
    Template {
        atoms: &[FAMILY, INTRO],
        anchors: &["FID"],
    },
    Template {
        atoms: &[FAMILY, COMMITTEE],
        anchors: &["FID"],
    },
    Template {
        atoms: &[FAMILY, INTRO, COMMITTEE],
        anchors: &["FID"],
    },
    Template {
        atoms: &[TARGET, FAMILY],
        anchors: &["TID", "FID"],
    },
    Template {
        atoms: &[TARGET, FAMILY, INTRO],
        anchors: &["TID", "FID"],
    },
    Template {
        atoms: &[TARGET, FAMILY, COMMITTEE],
        anchors: &["TID", "FID"],
    },
    Template {
        atoms: &[TARGET, CURATOR],
        anchors: &["TID"],
    },
    Template {
        atoms: &[CURATOR, CONTRIBUTOR],
        anchors: &["TID", "CID"],
    },
    Template {
        atoms: &[TARGET, CURATOR, CONTRIBUTOR],
        anchors: &["TID"],
    },
    Template {
        atoms: &[TARGET, INTERACTION],
        anchors: &["TID"],
    },
    Template {
        atoms: &[INTERACTION, LIGAND],
        anchors: &["TID", "LID"],
    },
    Template {
        atoms: &[TARGET, INTERACTION, LIGAND],
        anchors: &["TID"],
    },
    Template {
        atoms: &[TARGET, FAMILY, INTERACTION],
        anchors: &["TID"],
    },
    Template {
        atoms: &[TARGET, FAMILY, INTERACTION, LIGAND],
        anchors: &["TID"],
    },
    Template {
        atoms: &[TARGET, FAMILY, CURATOR, CONTRIBUTOR],
        anchors: &["TID"],
    },
    Template {
        atoms: &[TARGET, INTERACTION, CURATOR],
        anchors: &["TID"],
    },
];

fn key_domain(var: &str) -> i64 {
    match var {
        "FID" => FAMILIES,
        "TID" => TARGETS,
        "LID" => LIGANDS,
        "CID" => CONTRIBUTORS,
        other => unreachable!("{other} is not an anchor"),
    }
}

impl Template {
    /// Variables in first-occurrence order, without `anchor`.
    fn free_vars(&self, anchor: Option<&str>) -> Vec<&'static str> {
        let mut vars: Vec<&'static str> = Vec::new();
        for (_, atom_vars) in self.atoms {
            for v in *atom_vars {
                if Some(*v) != anchor && !vars.contains(v) {
                    vars.push(v);
                }
            }
        }
        vars
    }

    fn instantiate(&self, anchor: Option<(&str, i64)>, head: Vec<&'static str>) -> Query {
        let atoms = self
            .atoms
            .iter()
            .map(|(rel, vars)| {
                let terms = vars
                    .iter()
                    .map(|v| match anchor {
                        Some((a, key)) if a == *v => Term::Const(key),
                        _ => Term::Var(v),
                    })
                    .collect();
                (*rel, terms)
            })
            .collect();
        Query { head, atoms }
    }
}

/// The two λ-parameterised point shapes of `lookup` (and of the
/// `curate` reader): `shape` 0 is family ⋈ intro by FID, 1 is
/// target ⋈ family by TID.
pub fn lookup(shape: usize, key: i64) -> Query {
    match shape {
        0 => TEMPLATES[4].instantiate(Some(("FID", key)), vec!["FName"]),
        _ => TEMPLATES[7].instantiate(Some(("TID", key)), vec!["TName", "FName"]),
    }
}

pub fn lookup_key(shape: usize, rng: &mut Rng) -> i64 {
    let domain = if shape == 0 { FAMILIES } else { TARGETS };
    1 + rng.below(domain as u64) as i64
}

/// The three whole-table report shapes, in round-robin order: light,
/// heavy, middle (see README for which percentile lands in which).
pub fn reports() -> [Query; 3] {
    [
        TEMPLATES[4].instantiate(None, vec!["FName", "Text"]),
        TEMPLATES[6].instantiate(None, vec!["FName", "PName", "Text"]),
        TEMPLATES[5].instantiate(None, vec!["FName", "PName"]),
    ]
}

/// One warm-up query per template, so every view is materialised before
/// `adhoc` is timed.
pub fn adhoc_warmers() -> Vec<Query> {
    TEMPLATES
        .iter()
        .map(|t| {
            let anchor = t.anchors[0];
            let head = t.free_vars(Some(anchor));
            t.instantiate(Some((anchor, 1)), head[..1].to_vec())
        })
        .collect()
}

/// Enumerates the ad-hoc shape space — template × anchor × ordered
/// projection of one to three variables — in a seeded order that visits
/// every shape once before repeating any.
pub struct AdhocShapes {
    /// `(template, anchor, free variables)` per block, with the running
    /// total of shapes before it.
    blocks: Vec<(usize, &'static str, Vec<&'static str>, u64)>,
    total: u64,
    next: u64,
    stride: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Ordered selections of 1, 2 or 3 out of `v` variables.
fn projections(v: u64) -> u64 {
    v + v * (v - 1) + v * (v - 1) * v.saturating_sub(2)
}

impl AdhocShapes {
    pub fn new(rng: &mut Rng) -> AdhocShapes {
        let mut blocks = Vec::new();
        let mut total = 0u64;
        for (t, tpl) in TEMPLATES.iter().enumerate() {
            for anchor in tpl.anchors {
                let vars = tpl.free_vars(Some(anchor));
                let n = projections(vars.len() as u64);
                blocks.push((t, *anchor, vars, total));
                total += n;
            }
        }
        let mut stride = 1 + rng.below(total - 1);
        while gcd(stride, total) != 1 {
            stride += 1;
        }
        AdhocShapes {
            blocks,
            total,
            next: rng.below(total),
            stride,
        }
    }

    /// Size of the shape space (the plan cache holds 256).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The next unseen shape, instantiated at a seeded key.
    pub fn next(&mut self, rng: &mut Rng) -> Query {
        let shape = self.next;
        self.next = (self.next + self.stride) % self.total;
        let (t, anchor, vars, base) = self
            .blocks
            .iter()
            .rev()
            .find(|(_, _, _, base)| *base <= shape)
            .expect("block 0 starts at 0");
        let mut i = shape - base;
        let v = vars.len() as u64;
        // Decode `i` into an ordered selection without repetition.
        let arity = if i < v {
            1
        } else if i < v + v * (v - 1) {
            i -= v;
            2
        } else {
            i -= v + v * (v - 1);
            3
        };
        let mut pool = vars.clone();
        let mut head = Vec::with_capacity(arity);
        for _ in 0..arity {
            let n = pool.len() as u64;
            head.push(pool.remove((i % n) as usize));
            i /= n;
        }
        let key = 1 + rng.below(key_domain(anchor) as u64) as i64;
        TEMPLATES[*t].instantiate(Some((anchor, key)), head)
    }
}

// ---------------------------------------------------------------------------
// Curator transactions
// ---------------------------------------------------------------------------

/// Keys the curator creates start here, far above every generated key,
/// so reads of generated keys never race a write.
const CURATED_BASE: i64 = 1_000_000;

/// The family key transaction `k` inserts (and never deletes): citable
/// with `lookup(0, key)` once the transaction is acknowledged.
pub fn curated_family(k: u64) -> i64 {
    CURATED_BASE + k as i64
}

/// Transaction `k` of the curator: four operations over Family,
/// FamilyIntro, Target and Interaction. Even transactions insert all
/// four; odd ones insert a family and its intro and delete the target
/// and interaction the previous transaction inserted.
pub fn curator_txn(k: u64) -> Vec<String> {
    let fid = curated_family(k);
    let target = |id: i64| format!("Target({id}, 'curated target {id}', {id})");
    let interaction = |id: i64| format!("Interaction({id}, {}, {})", 1 + id % LIGANDS, id % 1000);
    let mut ops = vec![
        format!("insert Family({fid}, 'curated family {fid}', 'added by the curator')"),
        format!("insert FamilyIntro({fid}, 'intro of curated family {fid}')"),
    ];
    if k.is_multiple_of(2) {
        ops.push(format!("insert {}", target(fid)));
        ops.push(format!("insert {}", interaction(fid)));
    } else {
        ops.push(format!("delete {}", interaction(fid - 1)));
        ops.push(format!("delete {}", target(fid - 1)));
    }
    ops
}

/// The citation views registered at set-up: the paper's λ-parameterised
/// V1 and constant V2/V3, target-, ligand- and interaction-level views at
/// both granularities, and two join views.
pub fn view_commands() -> Vec<String> {
    const DB: &str = "IUPHAR/BPS Guide to PHARMACOLOGY";
    let constant =
        |name: &str, rule: &str| format!("view {name}{rule} | cite C{name}(D) :- D = '{DB}'");
    let curators = |name: &str| {
        format!(
            "cite λ TID. C{name}(TID, CName) :- TargetCurator(TID, CID), \
             Contributor(CID, CName, Affil) | static database=GtoPdb"
        )
    };
    vec![
        "view λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc) \
         | cite λ FID. CV1(FID, PName) :- Committee(FID, PName) | static database=GtoPdb"
            .to_string(),
        constant("V2", "(FID, FName, Desc) :- Family(FID, FName, Desc)"),
        constant("V3", "(FID, Text) :- FamilyIntro(FID, Text)"),
        constant("VC", "(FID, PName) :- Committee(FID, PName)"),
        format!(
            "view λ TID. VT(TID, TName, FID) :- Target(TID, TName, FID) | {}",
            curators("VT")
        ),
        constant("VT2", "(TID, TName, FID) :- Target(TID, TName, FID)"),
        constant("VL", "(LID, LName, LType) :- Ligand(LID, LName, LType)"),
        format!(
            "view λ TID. VI(TID, LID, Affinity) :- Interaction(TID, LID, Affinity) | {}",
            curators("VI")
        ),
        constant("VTC", "(TID, CID) :- TargetCurator(TID, CID)"),
        constant(
            "VCo",
            "(CID, CName, Affil) :- Contributor(CID, CName, Affil)",
        ),
        constant(
            "VTF",
            "(TID, TName, FID, FName) :- Target(TID, TName, FID), Family(FID, FName, Desc)",
        ),
        "view λ FID. VFI(FID, FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text) \
         | cite λ FID. CVFI(FID, PName) :- Committee(FID, PName) | static database=GtoPdb"
            .to_string(),
    ]
}

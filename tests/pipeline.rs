//! Full-pipeline integration: CSV interchange → script interpreter →
//! citation → dump → fixity verification.

use citesys::script::Interpreter;
use citesys::storage::{from_csv, load_csv, to_csv, Database};

/// CSV → database → CSV round trip preserves the digest, and a script can
/// load the produced CSV.
#[test]
fn csv_script_round_trip() {
    // Build a database via CSV import.
    let csv = "\"FID:int\",\"FName:text\",\"Desc:text\"\n\
               11,\"Calcitonin\",\"C1\"\n12,\"Calcitonin\",\"C2\"\n13,\"Dopamine\",\"D1\"\n";
    let mut db = Database::new();
    load_csv(&mut db, "Family", &[0], csv).unwrap();
    assert_eq!(db.relation("Family").unwrap().len(), 3);

    // Export and re-import.
    let exported = to_csv(db.relation("Family").unwrap());
    let (schema, tuples) = from_csv("Family", &[0], &exported).unwrap();
    assert_eq!(schema.arity(), 3);
    assert_eq!(tuples.len(), 3);

    // Feed the exported CSV to the script interpreter via `load`.
    let dir = std::env::temp_dir().join("citesys-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("family.csv");
    std::fs::write(&path, &exported).unwrap();
    let script = format!(
        "schema Family(FID:int, FName:text, Desc:text) key(0)\n\
         schema FamilyIntro(FID:int, Text:text) key(0)\n\
         load Family from '{}'\n\
         insert FamilyIntro(11, '1st')\n\
         insert FamilyIntro(12, '2nd')\n\
         view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'\n\
         view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'\n\
         commit\n\
         cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)\n\
         verify\n\
         dump Family\n",
        path.display()
    );
    let mut interp = Interpreter::new();
    let out = interp.run(&script).unwrap();
    assert!(out.contains("loaded 3 tuple(s) into Family"));
    assert!(out.contains("1 answer tuple(s) at version 1"));
    assert!(out.contains("GtoPdb"));
    assert!(out.contains("fixity verified: v1"));
    // The dump matches the original export byte-for-byte.
    assert!(out.contains(exported.trim_end()));
    let _ = std::fs::remove_file(&path);
}

/// Scripted partial citation over a narrow view produces CSL-JSON with the
/// fixity block.
#[test]
fn scripted_partial_csl() {
    let script = "\
schema Family(FID:int, FName:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(1, 'A')
insert Family(2, 'B')
insert FamilyIntro(1, 'intro')
view V(FID, N) :- Family(FID, N), FamilyIntro(FID, T) | cite CV(D) :- D = 'narrow-db'
commit
cite Q(N) :- Family(F, N) | partial | format csl
";
    let mut interp = Interpreter::new();
    let out = interp.run(script).unwrap();
    assert!(out.contains("coverage: partial (1 uncited)"));
    assert!(out.contains("\"type\":\"dataset\""));
    assert!(out.contains("\"title\":\"narrow-db\""));
    assert!(out.contains("\"sha256\":"));
}

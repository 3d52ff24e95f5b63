//! Two boolean scopes without bindings — `∃[1 = 1] ∧ ∃[1 = 2]` — share a
//! plan (their constants are typed holes), and an empty binding slice's
//! address is the one dangling address every empty slice has. Their
//! operator id was that address, so the semi-join build cache served the
//! first scope's build to the second: the query returned every row of `R`
//! instead of none.

use arc_core::conventions::Conventions;
use arc_core::dsl::*;
use arc_engine::{Catalog, Engine, Relation};

#[test]
fn sibling_scopes_without_bindings_build_separately() {
    let catalog = Catalog::new().with(Relation::from_ints("R", &["A"], &[&[1], &[2]]));
    for (first, second) in [(1, 2), (2, 1), (1, 1)] {
        let q = collection(
            "Q",
            &["A"],
            exists(
                &[bind("r", "R")],
                and([
                    assign("Q", "A", col("r", "A")),
                    exists(&[], eq(int(1), int(first))),
                    exists(&[], eq(int(1), int(second))),
                ]),
            ),
        );
        for threads in [1, 4] {
            let got = Engine::new(&catalog, Conventions::sql())
                .with_threads(threads)
                .eval_collection(&q)
                .unwrap();
            arc_tests::assert_oracle(&catalog, Conventions::sql(), &q, &got);
        }
    }
}

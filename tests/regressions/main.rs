//! Regression corpus: one module per bug, each pinning the smallest
//! program that used to give a wrong answer. New entries go here, shrunk.

mod batch_profile_parity;
mod datalog_bound_aggregate;
mod definition_order;
mod explain_shows_the_executed_plan;
mod i64_min_round_trip;
mod int_sums_wrap;
mod nullary_heads;
mod outer_join_stratification;
mod recursion_through_abstract;
mod right_join_alias;
mod zero_binding_semi_scopes;

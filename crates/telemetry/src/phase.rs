//! Shared span-name taxonomy.
//!
//! Every phase name used by the live trainer instrumentation and by the
//! `perfmodel` simulator lives here, so measured and simulated timelines
//! agree on vocabulary and can be diffed directly. Keep [`ALL`] in sync
//! when adding a constant.

/// Whole training iteration (outermost span).
pub const ITERATION: &str = "iteration";
/// Bottom-MLP forward over dense features.
pub const FWD_BOTTOM_MLP: &str = "fwd_bottom_mlp";
/// Redistribution of sparse indices to embedding-shard owners.
pub const INPUT_A2A: &str = "input_a2a";
/// Host-to-device input transfer (simulated pipeline only today).
pub const HTOD: &str = "htod";
/// Embedding-table lookup / pooling on the owning rank.
pub const EMB_LOOKUP: &str = "emb_lookup";
/// Forward AlltoAll returning pooled embedding vectors.
pub const ALLTOALL_FWD: &str = "alltoall_fwd";
/// Reduce-scatter for row-wise sharded tables.
pub const REDUCE_SCATTER: &str = "reduce_scatter";
/// All-gather for row-wise sharded gradients.
pub const ALLGATHER: &str = "allgather";
/// Pairwise dot-product feature interaction.
pub const INTERACTION: &str = "interaction";
/// Top-MLP forward.
pub const TOP_MLP: &str = "top_mlp";
/// Backward pass (outer span over all backward phases).
pub const BACKWARD: &str = "backward";
/// Top-MLP backward.
pub const TOP_MLP_BWD: &str = "top_mlp_bwd";
/// Interaction backward.
pub const INTERACTION_BWD: &str = "interaction_bwd";
/// Backward AlltoAll returning pooled-embedding gradients.
pub const ALLTOALL_BWD: &str = "alltoall_bwd";
/// Bottom-MLP backward.
pub const BWD_BOTTOM_MLP: &str = "bwd_bottom_mlp";
/// Sparse (embedding) optimizer apply.
pub const SPARSE_OPTIM: &str = "sparse_optim";
/// Dense (MLP) optimizer apply.
pub const DENSE_OPTIM: &str = "dense_optim";
/// Combined dense-gradient AllReduce. The trainer no longer records it
/// (it issues the two halves below under both wait policies); the name
/// stays for older artifacts that carry it and for reports that fold
/// the halves into one column.
pub const ALLREDUCE: &str = "allreduce";
/// AllReduce of the top-MLP gradient half plus the iteration's loss,
/// issued as soon as the top-MLP backward finishes (lane 0 when blocking,
/// the comm lane when posted).
pub const ALLREDUCE_TOP: &str = "allreduce_top";
/// AllReduce of the bottom-MLP gradient half, issued as soon as the
/// bottom-MLP backward finishes (lane 0 when blocking, the comm lane
/// when posted).
pub const ALLREDUCE_BOT: &str = "allreduce_bot";

/// Every phase name, in rough execution order.
pub const ALL: &[&str] = &[
    ITERATION,
    INPUT_A2A,
    HTOD,
    FWD_BOTTOM_MLP,
    EMB_LOOKUP,
    ALLTOALL_FWD,
    REDUCE_SCATTER,
    INTERACTION,
    TOP_MLP,
    BACKWARD,
    TOP_MLP_BWD,
    INTERACTION_BWD,
    ALLTOALL_BWD,
    ALLGATHER,
    BWD_BOTTOM_MLP,
    SPARSE_OPTIM,
    DENSE_OPTIM,
    ALLREDUCE,
    ALLREDUCE_TOP,
    ALLREDUCE_BOT,
];

/// Phases that are communication (exposed-comm accounting, paper Fig. 14).
pub const COMM: &[&str] = &[
    INPUT_A2A,
    ALLTOALL_FWD,
    REDUCE_SCATTER,
    ALLTOALL_BWD,
    ALLGATHER,
    ALLREDUCE,
    ALLREDUCE_TOP,
    ALLREDUCE_BOT,
];

/// Aggregate phases that contain other phases rather than doing work
/// themselves; critical-path attribution skips them so time is never
/// double-counted against both a parent and its leaf spans.
pub const AGGREGATE: &[&str] = &[ITERATION, BACKWARD];

/// True when `name` belongs to the shared taxonomy.
pub fn is_known(name: &str) -> bool {
    ALL.contains(&name)
}

/// Position of `name` in [`ALL`] — used as a compact wire id by the
/// heartbeat path, which packs the current phase into one atomic word.
/// `None` for names outside the taxonomy.
pub fn index_of(name: &str) -> Option<usize> {
    ALL.iter().position(|p| *p == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_duplicate_free_and_covers_comm() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(!ALL[i + 1..].contains(a), "duplicate phase name {a}");
        }
        for c in COMM {
            assert!(is_known(c), "comm phase {c} missing from ALL");
        }
    }

    #[test]
    fn index_of_agrees_with_all() {
        for (i, name) in ALL.iter().enumerate() {
            assert_eq!(index_of(name), Some(i));
        }
        assert_eq!(index_of("not_a_phase"), None);
    }
}

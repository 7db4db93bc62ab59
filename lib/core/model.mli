(** The paper's analytic framework (Section 5).

    A data-structure-centric cache model for pointer-path accesses.  For a
    structure of [n] homogeneous elements under a random sequence of
    same-type pointer-path accesses:

    - [D] — average number of unique element references per access
      (e.g. [log2 (n+1)] for search in a balanced binary tree);
    - [K] — average number of co-resident same-block elements used by the
      access (spatial locality), [1 <= K <= ⌊b/e⌋];
    - [R] — elements already cached from prior accesses (temporal
      locality), [0 <= R <= min D (c*a*⌊b/e⌋)].

    Miss rate of one access:  [m = (1 - R/D) / K].
    Steady state (colored structures): [m_s = (1 - R_s/D) / K]. *)

type latencies = Memsim.Hierarchy.latencies

val miss_rate : d:float -> k:float -> r:float -> float
(** [(1 - r/d) / k].  @raise Invalid_argument unless [d > 0], [k >= 1],
    [0 <= r <= d]. *)

val amortized_miss_rate : m:(int -> float) -> p:int -> float
(** [m_a(p) = (Σ_{i=1..p} m(i)) / p]: transient amortized rate over the
    first [p] accesses. *)

val memory_access_time :
  latencies -> ml1:float -> ml2:float -> refs:float -> float
(** [t_memory = (t_h + m_L1 t_mL1 + m_L1 m_L2 t_mL2) × refs]
    (Section 5.1). *)

val speedup :
  latencies ->
  naive:float * float -> cc:float * float -> float
(** Figure 8: ratio of naive to cache-conscious memory access time, for
    layout-only changes (reference counts cancel).  Arguments are
    [(m_L1, m_L2)] pairs. *)

val worst_case_naive : float * float
(** [(1., 1.)] — each block holds one element, no reuse (Section 5.2). *)

(** Closed forms for colored, subtree-clustered binary trees
    (Section 5.3, Figure 9). *)
module Ctree : sig
  val d : n:int -> float
  (** [log2 (n+1)]: nodes examined by a search. *)

  val k : block_elems:int -> float
  (** [K = log2 (k+1)] where [k] elements share a block: the expected
      accesses per entered block under random binary search when the
      block holds a [k]-node subtree (Section 2.1).  The same bound
      holds for a block of the recursive van Emde Boas layout, whose
      blocks are themselves subtrees, and it holds there at every block
      size at once, pages included (the cache-oblivious property;
      Lindstrom & Rajan). *)

  val k_depth_first : block_elems:int -> float
  (** [K] for a depth-first parent-child-grandchild chain of [k]
      elements: [sum_{i=0}^{k-1} (1/2)^i = 2 (1 - (1/2)^k)], below 2
      for any [k] (Section 2.1). *)

  val k_weighted : block_elems:int -> p:float -> float
  (** [K] for a hot-chain block of [k] elements when the traversal
      follows the packed hottest child with probability [p] at each
      step: [sum_{i=0}^{k-1} p^i = (1 - p^k) / (1 - p)], and [k] exactly
      when [p = 1].  At [p = 1/2], an unprofiled random descent, this is
      {!k_depth_first}, which is why the weighted engine needs a real
      profile to win.
      @raise Invalid_argument if [p] is outside [0, 1]. *)

  val r_s : sets:int -> assoc:int -> block_elems:int -> color_frac:float -> float
  (** [R_s = log2 (color_frac * c * k * a + 1)]: the colored top of the
      tree is permanently resident. *)

  val miss_rate :
    n:int -> sets:int -> assoc:int -> block_elems:int -> color_frac:float ->
    float
  (** Figure 9's steady-state L2 miss rate; clamped to [0, 1] (trees that
      fit entirely in the hot region never miss in steady state). *)

  val miss_rate_k :
    n:int -> sets:int -> assoc:int -> block_elems:int -> color_frac:float ->
    k:float -> float
  (** {!miss_rate} with an explicit spatial-locality factor [K] instead
      of the subtree form {!k} — pass another engine's factor (e.g.
      {!k_depth_first}) to model that layout engine in the same
      steady-state framework.
      @raise Invalid_argument if [k < 1]. *)

  val transient_miss_rate :
    i:int -> n:int -> sets:int -> assoc:int -> block_elems:int ->
    color_frac:float -> float
  (** An extension beyond the paper: the expected miss rate of the [i]-th
      search while the colored hot region is still filling.  Models the
      hot region as a coupon collector — each search touches
      [R_s / K] hot blocks, so after [i] searches the expected resident
      fraction is [1 - (1 - r/H)^i] of the steady state.  Decreases
      monotonically to {!miss_rate}; feed it to
      {!Model.amortized_miss_rate} for the Figure 5-style transient
      average. *)

  val predicted_speedup :
    lat:latencies -> n:int -> sets:int -> assoc:int -> block_elems:int ->
    color_frac:float -> ml1_cc:float -> float
  (** Figure 10's predicted speedup of a transparent C-tree over a naive
      (random-layout) tree.  [ml1_cc] is the assumed L1 miss rate of the
      cache-conscious tree (the paper's validation assumes 1.0 because a
      16 KB / 16 B-block L1 provides practically no clustering or
      reuse for 20-byte nodes). *)
end

(** Beyond the paper: the multilevel view that distinguishes the
    recursive van Emde Boas layout from single-level clustering
    (Alstrup et al.; Lindstrom & Rajan).  The paper's model treats one
    cache level; a vEB layout meets the same per-level transfer bound at
    {e every} granularity — L1 blocks, L2 blocks, and pages —
    simultaneously, while subtree clustering meets it only for the [k]
    it was planned with. *)
module Multilevel : sig
  val path_transfers : d:float -> block_elems:int -> float
  (** Expected block transfers for a root-to-leaf path of [d] examined
      nodes at a level whose blocks hold [block_elems] elements, when
      the layout packs subtrees at that granularity:
      [d / log2 (block_elems + 1)].  Evaluate at the L2 capacity to
      recover the paper's model; evaluate at the page capacity to bound
      TLB misses under a vEB layout (a bound depth-first chunking
      misses by a factor approaching [log2 (k+1)/2]).
      @raise Invalid_argument unless [d > 0] and [block_elems >= 1]. *)
end

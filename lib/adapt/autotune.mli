(** Placement-parameter autotuning: a small, model-first search over the
    coloring fraction, clustering scheme, and [ccmalloc] strategy.

    The Section 5 model ranks the coloring fractions analytically (it
    predicts the steady-state miss rate [m_s] as a function of
    [color_frac] directly); short simulated validation runs — supplied
    by the caller, typically a reduced-scale benchmark — then measure
    the color sweep plus the cluster {m \times} strategy cross for the
    model's winning fraction.  Measured cycles beat model scores
    wherever both exist. *)

type candidate = {
  cand_color_frac : float;
  cand_cluster : Ccsl.Ccmorph.cluster_scheme;
  cand_strategy : Ccsl.Ccmalloc.strategy;
  cand_model_miss : float;  (** analytic [m_s] for this coloring *)
  cand_cycles : int option;  (** simulated cycles, when validated *)
}

type recommendation = {
  rec_color_frac : float;
  rec_cluster : Ccsl.Ccmorph.cluster_scheme;
  rec_strategy : Ccsl.Ccmalloc.strategy;
  rec_model_miss : float;
  rec_cycles : int option;
  rec_candidates : candidate list;  (** everything considered *)
}

val search :
  ?color_fracs:float list ->
  ?clusters:Ccsl.Ccmorph.cluster_scheme list ->
  ?strategies:Ccsl.Ccmalloc.strategy list ->
  ?validate:
    (color_frac:float ->
    cluster:Ccsl.Ccmorph.cluster_scheme ->
    strategy:Ccsl.Ccmalloc.strategy ->
    int) ->
  n:int ->
  sets:int ->
  assoc:int ->
  block_elems:int ->
  unit ->
  recommendation
(** Defaults: [color_fracs = [0.25; 0.5; 0.75]], the paper's two
    clustering schemes plus the cache-oblivious vEB engine
    ([Engine Layout.Engine.veb]), all three strategies.  [n], [sets],
    [assoc] and [block_elems] feed the model; each scheme is modeled
    with its own spatial-locality factor ({!scheme_k}).  [validate] runs
    one short simulated experiment and returns its total cycles; omit it
    for a model-only recommendation.
    @raise Invalid_argument on an empty axis. *)

val scheme_k : block_elems:int -> Ccsl.Ccmorph.cluster_scheme -> float
(** The Section 5 [K] (expected same-block elements used per entered
    block) the model assigns a scheme: {!Ccsl.Model.Ctree.k} for
    subtree/vEB, {!Ccsl.Model.Ctree.k_depth_first} for depth-first and
    {!Ccsl.Model.Ctree.k_weighted} at [p = 1/2] for (unprofiled)
    weighted. *)

val morph_params : recommendation -> Ccsl.Ccmorph.params
(** The recommendation as ready-to-use [ccmorph] parameters. *)

val cluster_name : Ccsl.Ccmorph.cluster_scheme -> string

val to_json : recommendation -> Obs.Json.t
(** The [recommended_params] section of the experiment envelope. *)

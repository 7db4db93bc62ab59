(** Epoch-based re-morph policy: watch a structure's miss rate through
    the machine tracer and decide {e when} reorganizing is worth paying
    for.

    The policy owns an {!Obs.Profile.Reuse} reuse-distance profiler
    subscribed to the timed access stream.  Every [epoch_accesses] traced
    accesses it closes an epoch and reads the windowed implied miss rate
    at the L2's full-block capacity ({!Obs.Profile.Reuse.epoch_miss_rate}).
    A morph is requested when, for [hysteresis] consecutive epochs,
    either

    - the epoch rate exceeds the analytic steady-state prediction [m_s]
      from {!Ccsl.Model.Ctree} by more than [margin] (the layout
      underperforms what is achievable), or
    - it exceeds the best epoch observed since the last morph by more
      than [margin] (the layout has degraded),

    {e and} the expected stall savings of one epoch at the excess rate
    cover the copy cost measured from the last morph's [bytes_copied].
    After a morph the policy rests for [cooldown_epochs] epochs. *)

type t

type config = {
  epoch_accesses : int;  (** traced accesses per epoch (default 20000) *)
  capacity_frac : float;
      (** fraction of the L2's block capacity the windowed miss rate is
          evaluated at (default 1.0) *)
  margin : float;  (** tolerated excess over the floor (default 0.25) *)
  hysteresis : int;  (** consecutive bad epochs required (default 2) *)
  cooldown_epochs : int;  (** rest after a morph (default 1) *)
  copy_cost_per_byte : float;
      (** cycles one copied byte is assumed to cost (default 2.0) *)
  min_benefit_ratio : float;
      (** required savings/cost ratio before approving (default 1.0) *)
}

val default_config : config

val create : ?config:config -> Memsim.Machine.t -> t
(** @raise Invalid_argument if [epoch_accesses <= 0]. *)

val attach : t -> unit
(** Subscribe the profiler to the machine (idempotent). *)

val detach : t -> unit

val set_model_target :
  ?scheme:Ccsl.Ccmorph.cluster_scheme ->
  t -> n:int -> block_elems:int -> color_frac:float -> unit
(** Set the achievability floor to the Section 5 model's steady-state
    miss rate for an [n]-element tree on this machine's L2, using the
    spatial-locality factor of the layout engine the structure is
    actually morphed with ({!Autotune.scheme_k}; default [Subtree]) —
    a depth-first layout should not be held to the subtree model's
    tighter floor. *)

val set_target_rate : t -> float -> unit
(** Set the floor directly (structures the tree model does not fit).
    With no target set, only the degradation criterion can trigger. *)

val target : t -> float option

val should_morph : t -> bool
(** Poll at a structure-safe point (between benchmark steps/passes).
    At most one epoch is closed per call; [true] means "reorganize
    now". *)

val gate : t -> unit -> bool
(** [should_morph] as a closure, shaped for {!Olden.Common.morph_gate}. *)

val note_morph : t -> Ccsl.Ccmorph.result -> unit
(** Tell the policy a morph happened: records [bytes_copied] for the
    cost gate, resets the degradation baseline, starts the cooldown. *)

val last_epoch_miss_rate : t -> float

type stats = {
  epochs : int;
  triggers : int;  (** times [should_morph] returned [true] *)
  morphs : int;  (** times [note_morph] was called *)
  last_epoch_miss_rate : float;
  target_miss_rate : float option;
}

val stats : t -> stats
val stats_to_json : stats -> Obs.Json.t
(** The counters as a JSON object, one member per field;
    [target_miss_rate] only when a target is set. *)

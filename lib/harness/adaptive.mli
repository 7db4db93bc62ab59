(** The adaptive-placement ablation: close the paper's loop by letting
    the profile drive placement {e during} the run.

    Three arms per Olden benchmark, all measured whole-program (the
    adaptive arm's entire point is paying reorganization only when the
    policy approves, so morph costs land inside the measured region for
    every arm alike):

    - [base]: system malloc, no placement;
    - [static]: the Figure 7 ccmorph clustering+coloring arm, morphing
      on the kernel's fixed schedule;
    - [adaptive]: [ccmalloc new-block] wrapped by {!Adapt.Advisor}
      (online hint synthesis), with reorganization gated by
      {!Adapt.Policy} through {!Olden.Common.morph_gate} and morph
      parameters chosen by {!Adapt.Autotune} (model-ranked, validated by
      reduced-scale simulated runs). *)

type arm = {
  arm_label : string;  (** "base", "static" or "adaptive" *)
  arm_result : Olden.Common.result;
  arm_advisor : Adapt.Advisor.stats option;  (** adaptive arm only *)
  arm_policy : Adapt.Policy.stats option;  (** adaptive arm only *)
}

type report = {
  bench : string;
  arms : arm list;
  recommendation : Obs.Json.t option;
      (** {!Adapt.Autotune.to_json} of the autotuned parameters; kept as
          JSON because the recommended engine holds closures, which
          cannot cross the {!Parallel} pipe *)
}

val run :
  ?seed:int -> ?adapt:bool -> ?parallel:bool -> string -> report option
(** Run the arms for one {!Experiments.olden} benchmark; [None] for an
    unknown name.  Treeadd runs at 14 levels and 8 passes rather than
    the table's single pass, so the policy has traversals left to
    amortize a morph over.
    [adapt] (default true) includes the adaptive arm and the autotuned
    recommendation; [false] runs only the base/static pair.

    With [parallel:true] (default false) each arm runs in a forked
    child via {!Parallel.map} — the adaptive arm's autotune validation
    runs overlap the base and static arms — and each [(arm,
    recommendation)] pair comes back marshalled.  Every arm seeds its
    own RNGs from the benchmark params, so the report (and its JSON
    export) is byte-identical to a serial run. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> Obs.Json.t
(** The ["data"] payload: per-arm results, normalized cycles, advisor
    and policy counters. *)

val recommendation_json : report -> Obs.Json.t option
(** The envelope's ["recommended_params"] section, when autotuning
    ran. *)

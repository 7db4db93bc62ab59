(** Shared presentation helpers for the experiment drivers.

    Every driver in {!Experiments} and {!Ablations} renders a human
    table to a formatter {e and} returns the underlying numbers as
    {!Obs.Json.t}, so one computation feeds both the terminal and the
    machine-readable export ([ccsl-cli --json]). *)

val hr : Format.formatter -> unit
val section : Format.formatter -> string -> unit

val olden_result : Olden.Common.result -> Obs.Json.t
(** Full serialization of one Olden run: label, checksum, cost
    snapshot, miss rates, memory footprint. *)

val pct : int -> int -> float
(** [pct part total] as a percentage; [0.] when [total = 0]. *)

(** {1 Field readers}

    For results the drivers keep as JSON, such as
    {!Adaptive.report}'s autotuned recommendation. *)

exception Corrupt of string
(** Raised by the [get*] helpers on a missing or mistyped field; the
    payload carries the field name. *)

val getf : string -> Obs.Json.t -> float
val gets : string -> Obs.Json.t -> string

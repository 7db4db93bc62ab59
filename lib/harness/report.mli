(** Presentation helpers shared by the harness drivers.

    Every driver ({!Experiments}, {!Ablations}, {!Lint}, {!Profiles},
    {!Adaptive}) renders a human table to a formatter {e and} returns
    the underlying numbers as {!Obs.Json.t}, so one computation feeds
    both the terminal and the machine-readable export
    ([ccsl-cli --json]).  The JSON side is write-only: nothing here
    reads an export back. *)

val hr : Format.formatter -> unit
val section : Format.formatter -> string -> unit

val olden_result : Olden.Common.result -> Obs.Json.t
(** Full serialization of one Olden run: label, checksum, cost
    snapshot, miss rates, memory footprint. *)

val pct : int -> int -> float
(** [pct part total] as a percentage; [0.] when [total = 0]. *)

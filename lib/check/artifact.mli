(** Self-contained repro artifacts.

    When a monitored run violates an invariant, the checker writes
    everything needed to re-execute it deterministically: the system
    under test, the master seed (which derives the schedule perturbation,
    the fabric's jitter/drop stream, and the workload arrivals), the
    configuration knobs that differ from default, the explicit fault
    script (possibly shrunk, so it may no longer equal what the seed
    would generate), and where the violation fired (first-violation event
    counter and simulated time).

    The format is a line-oriented text file, stable across runs:
    [lazylog_check --replay FILE] parses it back and re-runs. *)

open Ll_sim

type scenario = {
  system : string;  (** ["erwin-m"] or ["erwin-st"] *)
  seed : int;  (** master seed: engine rng, perturbation, workload *)
  shards : int;
  modes : Mode.t list;  (** the modes on; {!Mode} documents each *)
  bug : string option;  (** intentional bug gate, e.g. ["no-pinning"] *)
  horizon : Engine.time;
  script : Fault_dsl.script;
}

type t = {
  scenario : scenario;
  invariant : string;
  detail : string;
  at_event : int;  (** scheduler event count at first detection *)
  at_time : Engine.time;
}

val to_string : t -> string
val of_string : string -> t
(** Raises [Failure] on malformed input. *)

val save : path:string -> t -> unit
val load : string -> t

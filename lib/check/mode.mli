(** The checker's modes: one table, read by every layer.

    A mode is an opt-in shape of the checked run. Its entry in {!info}
    is the only place it is named, documented, configured and
    serialized: the artifact writes one [key true|false] line per entry
    ({!Artifact}), the checker folds the entries' config changes and
    drain slacks ({!Checker}), and [lazylog_check] builds one flag per
    entry. Adding a mode is one constructor and one entry here, plus
    whatever workload {!Checker.run_one} runs for it. *)

open Ll_sim

type t = Batching | Replica_reads | Subscriptions | Gray | Tenants

type info = {
  key : string;
      (** the artifact line's key; with [-] for [_], the
          [lazylog_check] flag *)
  doc : string;  (** what the mode runs and checks; the flag's doc *)
  phrase : string;  (** the sweep header's phrase *)
  config : Lazylog.Config.t -> Lazylog.Config.t;
      (** the mode's change to the checker's base configuration *)
  slack : Engine.time;
      (** drain time after the horizon; a run takes its modes' largest,
          10 ms with none *)
}

val all : t list
(** Every mode, in table order: the order of artifact lines, header
    phrases and config changes. *)

val info : t -> info

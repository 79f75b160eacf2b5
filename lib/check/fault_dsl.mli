(** Composable fault schedules for the checker.

    A script is a timeline of fault steps applied to a running cluster on
    top of the fabric's injection knobs: replica crashes, symmetric
    partitions with a heal time, probabilistic loss windows, and straggler
    delay windows. Scripts are either generated from a seed ({!gen}, a
    pure function of the rng so a seed alone reproduces them) or parsed
    from a repro artifact ({!step_of_string}).

    Targets name roles, not fabric node ids, and are resolved when the
    fault fires: [Replica 0] is whoever leads at that moment, [Replica i]
    indexes the live membership mod its size, [Shard_primary i] likewise
    over the shards. This keeps scripts meaningful across view changes
    and across the shrinker's edits. *)

open Ll_sim
open Lazylog

type target = Replica of int | Shard_primary of int

type step =
  | Crash of { at : Engine.time; victim : int }
      (** Crash sequencing replica [victim] (mod live membership). *)
  | Partition of {
      at : Engine.time;
      until : Engine.time;
      a : target;
      b : target;
    }
  | Loss of { at : Engine.time; until : Engine.time; p : float }
      (** Uniform message loss with probability [p] during the window. *)
  | Straggler of {
      at : Engine.time;
      until : Engine.time;
      who : target;
      delay : Engine.time;
    }
  | Linkfault of {
      at : Engine.time;
      until : Engine.time;
      src : target;
      dst : target;
      delay : Engine.time;
      drop_p : float;
    }
      (** Gray verb: degrade the directed [src -> dst] link only (extra
          delay and/or loss; [drop_p = 1.0] is a one-way partition). The
          reverse direction stays healthy — an asymmetric partial
          partition. *)
  | Stutter of {
      at : Engine.time;
      until : Engine.time;
      who : target;
      period : Engine.time;
      stall : Engine.time;
    }
      (** Gray verb: the target shard primary's disk pauses for [stall]
          every [period] (firmware-GC-style fail-slow). [Replica] targets
          are no-ops — sequencing replicas are in-memory. *)
  | Degrade of {
      at : Engine.time;
      until : Engine.time;
      who : target;
      factor : float;
    }
      (** Gray verb: the target shard primary's disk serves every
          operation [factor] x slower for the window. *)

type script = step list

val sort : script -> script
(** Stable sort by fire time. *)

val gen :
  ?gray:bool ->
  Random.State.t -> horizon:Engine.time -> nreplicas:int -> nshards:int ->
  script
(** Draw a random script (0–4 steps, at most one crash, windows kept
    short relative to the staging scrubber). Pure in the rng. With
    [gray] (default false), draw from the hostile-world distribution,
    which adds the fail-slow verbs; without it the distribution is
    byte-identical to the historical one, so old seeds regenerate their
    exact scripts. *)

val apply : Erwin_common.t -> script -> unit
(** Schedule every step against the cluster. Must run inside
    [Engine.run], before or during the workload. *)

val step_to_string : step -> string

val step_of_string : string -> step
(** Inverse of {!step_to_string}; raises [Failure] on malformed input. *)

type counts = {
  crashes : int;
  partitions : int;
  losses : int;
  stragglers : int;
  linkfaults : int;
  stutters : int;
  degrades : int;
}

val count_kind : script -> counts

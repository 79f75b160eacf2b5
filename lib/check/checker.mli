(** The exploration harness: run one seeded, fault-injected, monitored
    simulation of an Erwin system; sweep many seeds in parallel; shrink a
    failing fault script.

    Each run is fully determined by its {!Artifact.scenario}: the master
    seed drives the engine's schedule perturbation ([Engine.run
    ~perturb:true]), the fabric's jitter/drop stream, and the workload
    arrivals; the fault script is either generated from the same seed
    ({!scenario}) or given explicitly (replay, shrinking). The workload
    is a fixed shape — four open-loop writers plus one reader over
    the stable prefix — so violations depend only on (scenario, seed).

    The run stops at the first invariant violation (its event counter is
    then the earliest detection point), or shortly after the horizon. *)

open Ll_sim

val default_horizon : Engine.time
val quick_horizon : Engine.time

val scenario :
  system:string ->
  seed:int ->
  ?shards:int ->
  ?modes:Mode.t list ->
  ?bug:string ->
  ?horizon:Engine.time ->
  unit ->
  Artifact.scenario
(** A scenario whose fault script is generated from [seed] (a pure
    function of seed, horizon, topology and the {!Mode.Gray} mode, which
    draws gray verbs). [system] is ["erwin-m"] or ["erwin-st"]; [modes]
    (default none) are the {!Mode} entries to run, each documented
    there; [bug] enables a known-bad configuration (currently
    ["no-pinning"]). *)

type outcome = {
  scenario : Artifact.scenario;
  violation : Monitors.violation option;
      (** the first violation; a run that died on an exception reports it
          as invariant ["exception"] *)
  coverage : Monitors.coverage;
      (** what the run exercised, its scheduler events and its rpc-layer
          counter deltas (retries, shed retries, hedges won) included *)
}

val run_one : Artifact.scenario -> outcome
(** Execute one monitored run. Must NOT be called from inside
    [Engine.run] (it runs its own simulation on the calling domain). *)

val shrink : Artifact.scenario -> Monitors.violation -> Artifact.scenario
(** Greedily minimize the fault script: drop any step whose removal
    still reproduces a violation of the same invariant. Re-runs the
    simulation per candidate. *)

val artifact_of : outcome -> Artifact.t option

val sweep : jobs:int -> Artifact.scenario list -> outcome list
(** Run every scenario, up to [jobs] at a time on parallel domains
    (engine and monitor state are domain-local). Results are in input
    order. *)

val summary : outcome list -> string
(** The sweep's coverage summary: a ["coverage summary"] header, then
    per system the outcomes' {!Monitors.coverage} records summed and
    printed as one line, plus a gray line when any gray fault, eviction,
    retry or hedge happened and a tenants line when any tenant log
    advanced or any append was shed. *)

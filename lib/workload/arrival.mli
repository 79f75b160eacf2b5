(** Open- and closed-loop load generation.

    Open-loop drivers issue operations at a target rate regardless of
    completion (Poisson or uniform inter-arrivals), with each operation on
    its own fiber — so saturation shows up as queueing delay, exactly as
    on a real load generator. Closed-loop drivers run a fixed number of
    client fibers back-to-back. *)

open Ll_sim

type arrivals =
  | Poisson  (** exponential inter-arrival gaps *)
  | Uniform  (** fixed inter-arrival gaps *)
  | Bursty of { factor : float; duty : float; period : Engine.time }
      (** Poisson arrivals whose rate alternates each [period]: for the
          first [duty] fraction the local rate is [factor]x the off-burst
          rate. Normalized so the time-averaged rate is still [rate]. *)
  | Diurnal of { amplitude : float; period : Engine.time }
      (** Poisson arrivals with a sinusoidal rate swing of [amplitude]
          (0..1) around [rate] over each [period]. *)

val open_loop :
  ?arrivals:arrivals ->
  ?seed:int ->
  rate:float ->
  until:Engine.time ->
  (int -> unit) ->
  unit
(** [open_loop ~rate ~until op] spawns [op i] at approximately [rate]
    per second of simulated time until the absolute time [until]. Returns
    immediately (the generator runs on its own fiber). Without [seed], the
    arrival stream derives from the engine's master seed. *)

val closed_loop :
  clients:int -> until:Engine.time -> (client:int -> int -> unit) -> unit
(** [closed_loop ~clients ~until op] runs [clients] fibers, each executing
    [op ~client i] back-to-back while [Engine.now () < until]. *)

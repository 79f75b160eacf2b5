(** Seeded random distributions for workloads and latency jitter.

    Thin helpers over [Random.State] so every stochastic choice in the
    simulator draws from an explicitly seeded stream and runs reproduce
    exactly. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] is an independent stream derived from [t] (advances [t]). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). Requires [n > 0]. *)

val float : t -> float -> float
(** Uniform in [0, x). *)

val bool : t -> p:float -> bool
(** [bool t ~p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

(** Zipfian key generator as used by YCSB. *)
module Zipf : sig
  type gen

  val create : t -> n:int -> theta:float -> gen
  (** [create rng ~n ~theta] generates keys in [0, n) with zipfian skew
      [theta] (YCSB default 0.99). *)

  val next : gen -> int
end

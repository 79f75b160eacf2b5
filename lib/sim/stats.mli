(** Measurement collection: latency reservoirs, percentiles, CDFs, and
    throughput timelines.

    All latencies are stored in simulated nanoseconds and reported in
    microseconds unless noted, matching the units used in the paper's
    figures. *)

(** {1 Latency reservoirs} *)

module Reservoir : sig
  type t

  val create : ?name:string -> unit -> t

  val add : t -> int -> unit
  (** [add t ns] records one latency sample of [ns] nanoseconds. *)

  val count : t -> int

  val mean_us : t -> float

  val percentile_us : t -> float -> float
  (** [percentile_us t 99.0] is the p99 in microseconds. 0 samples -> nan. *)

  val min_us : t -> float
  val max_us : t -> float
  val stddev_us : t -> float

  val cdf : t -> points:int -> (float * float) list
  (** [cdf t ~points] is [(latency_us, cumulative_percent)] pairs sampled at
      [points] evenly spaced ranks, suitable for printing a CDF series. *)

  val merge : t list -> t

  val clear : t -> unit

  val name : t -> string
end

(** {1 Throughput timelines} *)

module Timeline : sig
  type t

  val create : bin:Engine.time -> t
  (** [create ~bin] counts events in bins of [bin] simulated ns. *)

  val record : t -> at:Engine.time -> unit
  val record_n : t -> at:Engine.time -> n:int -> unit

  val series : t -> (float * float) list
  (** [(time_seconds, events_per_second)] per bin, in time order. *)

  val total : t -> int
end

val throughput_per_sec : count:int -> dur:Engine.time -> float
(** Events per second of simulated time. *)

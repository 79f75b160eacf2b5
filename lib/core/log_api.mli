(** The shared-log client interface (paper figure 2).

    Every shared log in this repository — Erwin-m, Erwin-st, Corfu, Scalog,
    and stand-alone Kafka — exposes a client handle of this type, so the
    example applications and the benchmark harness run unchanged on any of
    them.

    Per the LazyLog abstraction, [append] returns only a durability flag,
    not a position. Eager-ordering systems (Corfu, Scalog) of course also
    know the position internally; they still conform to this interface.
    [append_sync] is the optional eager extension discussed in section 5.5
    ("LazyLog systems can be easily augmented with an appendSync interface
    that eagerly orders records, albeit at the cost of latency"). *)

type t = {
  name : string;  (** system name, for reports *)
  append : size:int -> data:string -> bool;
      (** Append a record; true once the record is durable. Blocking. *)
  read : from:int -> len:int -> Types.record list;
      (** Read [len] records starting at position [from]. Blocking; waits
          until the positions are readable (i.e. bound and stable). *)
  check_tail : unit -> int;
      (** Number of durable records in the log. *)
  trim : upto:int -> bool;
      (** Garbage collect the prefix below position [upto]. *)
  append_sync : (size:int -> data:string -> int) option;
      (** Optional eager append returning the bound position. *)
}

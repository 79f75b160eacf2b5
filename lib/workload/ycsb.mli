(** YCSB workload generators (Cooper et al., SoCC '10), as used by the
    paper's KV-store evaluation (section 6.11): Load (write-only), YCSB-A
    (write-heavy, 50/50), YCSB-B (read-heavy, 95/5), with zipfian key
    popularity. *)


type op = Insert of int | Update of int | Read of int | Read_modify_write of int

type profile =
  | Load  (** insert-only *)
  | A  (** update-heavy: 50/50 updates/reads *)
  | B  (** read-heavy: 5/95 *)
  | C  (** read-only *)
  | D  (** read-latest: 5% inserts, 95% reads skewed to recent keys *)
  | F  (** read-modify-write: 50/50 reads/RMWs *)

type gen

val create :
  ?seed:int -> ?theta:float -> keyspace:int -> profile:profile -> unit -> gen
(** [theta] is the zipfian skew (default 0.99, the YCSB default). *)

val next : gen -> op

val value_bytes : int
(** 1024, per the paper's KV experiment. *)

type t = {
  name : string;
  append : size:int -> data:string -> bool;
  read : from:int -> len:int -> Types.record list;
  check_tail : unit -> int;
  trim : upto:int -> bool;
  append_sync : (size:int -> data:string -> int) option;
}

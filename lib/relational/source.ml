type t = {
  catalog : Schema.t;
  scan : string -> Tuple.t Seq.t;
  lookup : string -> (int * Value.t) list -> Tuple.t Seq.t;
  mem : string -> Tuple.t -> bool;
  cardinality : string -> int;
  selectivity : string -> (int * Value.t) list -> int;
}

let schema t name = Schema.find t.catalog name

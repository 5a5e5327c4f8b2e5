type 'a t = {
  owner : int;
  acl : Acl.t;
  mutable value : 'a;
  mutable writes : int;
  mutable hw : Thc_obsv.Ledger.t option;
  mutable watchers : (unit -> unit) list;  (* registration order *)
}

let create ~owner ~init =
  { owner; acl = Acl.only owner; value = init; writes = 0; hw = None; watchers = [] }

let owner t = t.owner

let attach_ledger t ledger = t.hw <- Some ledger

let attach_ledger_all a ledger = Array.iter (fun t -> attach_ledger t ledger) a

let on_change t f = t.watchers <- t.watchers @ [ f ]

let notify t = List.iter (fun f -> f ()) t.watchers

let charge t label =
  match t.hw with None -> () | Some hw -> Thc_obsv.Ledger.bump hw label

let read t =
  charge t "swmr.read";
  t.value

let enforce t ~ident ~op =
  try ignore (Acl.enforce t.acl ~ident ~op : int)
  with Acl.Violation _ as e ->
    charge t (Printf.sprintf "swmr.%s_denied" op);
    raise e

let write t ~ident v =
  enforce t ~ident ~op:"write";
  charge t "swmr.write";
  t.value <- v;
  t.writes <- t.writes + 1;
  notify t

let write_count t = t.writes

type 'a log = 'a list t

let create_log ~owner = create ~owner ~init:[]

let append t ~ident v =
  enforce t ~ident ~op:"append";
  charge t "swmr.append";
  t.value <- v :: t.value;
  t.writes <- t.writes + 1;
  notify t

let entries t = List.rev (read t)

let array ~n ~init = Array.init n (fun i -> create ~owner:i ~init:(init i))

let log_array ~n = Array.init n (fun i -> create_log ~owner:i)

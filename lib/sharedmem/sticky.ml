type 'a t = {
  write_acl : Acl.t;
  mutable value : 'a option;
  mutable watchers : (unit -> unit) list;  (* registration order *)
}

let create ?(write_acl = Acl.any) () = { write_acl; value = None; watchers = [] }

let on_change t f = t.watchers <- t.watchers @ [ f ]

let set t ~ident v =
  let _pid = Acl.enforce t.write_acl ~ident ~op:"set" in
  match t.value with
  | Some _ -> `Already
  | None ->
    t.value <- Some v;
    List.iter (fun f -> f ()) t.watchers;
    `Set

let get t = t.value

let is_set t = Option.is_some t.value

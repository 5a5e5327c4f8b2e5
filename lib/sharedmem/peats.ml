type tuple = string array

type pattern = string option array

type op_view = Out of tuple | Rd of pattern | Inp of pattern

type policy = pid:int -> op:op_view -> space:tuple list -> bool

type t = {
  policy : policy;
  mutable tuples : tuple list;  (* newest first *)
  mutable watchers : (unit -> unit) list;  (* registration order *)
}

let create ~policy = { policy; tuples = []; watchers = [] }

let on_change t f = t.watchers <- t.watchers @ [ f ]

let notify t = List.iter (fun f -> f ()) t.watchers

let matches pattern tuple =
  Array.length pattern = Array.length tuple
  && Array.for_all2
       (fun p f -> match p with None -> true | Some s -> String.equal s f)
       pattern tuple

let enforce t ~ident ~op =
  let pid = Thc_crypto.Keyring.pid_of_secret ident in
  if t.policy ~pid ~op ~space:t.tuples then pid
  else
    raise
      (Acl.Violation
         (Printf.sprintf "p%d denied by tuple-space policy" pid))

let out t ~ident tuple =
  let _pid = enforce t ~ident ~op:(Out tuple) in
  t.tuples <- tuple :: t.tuples;
  notify t

let oldest_match t pattern =
  let rec last acc = function
    | [] -> acc
    | tu :: rest -> last (if matches pattern tu then Some tu else acc) rest
  in
  last None t.tuples

let rd t ~ident pattern =
  let _pid = enforce t ~ident ~op:(Rd pattern) in
  oldest_match t pattern

let rd_all t ~ident pattern =
  let _pid = enforce t ~ident ~op:(Rd pattern) in
  List.rev (List.filter (matches pattern) t.tuples)

let inp t ~ident pattern =
  let _pid = enforce t ~ident ~op:(Inp pattern) in
  match oldest_match t pattern with
  | None -> None
  | Some found ->
    let removed = ref false in
    t.tuples <-
      List.rev
        (List.filter
           (fun tu ->
             if (not !removed) && tu == found then begin
               removed := true;
               false
             end
             else true)
           (List.rev t.tuples));
    notify t;
    Some found

let size t = List.length t.tuples

let owned_field_policy ~pid ~op ~space:_ =
  match op with
  | Out tuple -> Array.length tuple > 0 && String.equal tuple.(0) (string_of_int pid)
  | Rd _ -> true
  | Inp _ -> false

let append_once_policy ~pid ~op ~space =
  match op with
  | Out tuple ->
    Array.length tuple > 1
    && String.equal tuple.(0) (string_of_int pid)
    && not
         (List.exists
            (fun existing ->
              Array.length existing > 1
              && String.equal existing.(0) tuple.(0)
              && String.equal existing.(1) tuple.(1))
            space)
  | Rd _ -> true
  | Inp _ -> false

type board = {
  n : int;
  cells : (int * int, string Thc_sharedmem.Sticky.t) Hashtbl.t;
  mutable max_round : int;  (* highest round any process has published *)
  mutable watchers : (unit -> unit) list;  (* registration order *)
}

let create_board ~n =
  { n; cells = Hashtbl.create 64; max_round = 1; watchers = [] }

let cell board ~owner ~round =
  match Hashtbl.find_opt board.cells (owner, round) with
  | Some c -> c
  | None ->
    let c =
      Thc_sharedmem.Sticky.create ~write_acl:(Thc_sharedmem.Acl.only owner) ()
    in
    (* Cells appear lazily, so each forwards to the board-level list. *)
    Thc_sharedmem.Sticky.on_change c (fun () ->
        List.iter (fun f -> f ()) board.watchers);
    Hashtbl.add board.cells (owner, round) c;
    c

let behavior ~board ~ident ?scan_delay app =
  let self = Thc_crypto.Keyring.pid_of_secret ident in
  let scan_board =
    {
      Scan_rounds.publish =
        (fun ~round ~payload ->
          board.max_round <- max board.max_round round;
          match
            Thc_sharedmem.Sticky.set (cell board ~owner:self ~round) ~ident
              payload
          with
          | `Set | `Already -> ());
      read =
        (fun j ->
          (* Reading "process j's object" = all of j's cells stuck so far. *)
          let entries = ref [] in
          for r = board.max_round downto 1 do
            match Hashtbl.find_opt board.cells (j, r) with
            | None -> ()
            | Some c ->
              (match Thc_sharedmem.Sticky.get c with
              | Some payload -> entries := (j, r, payload) :: !entries
              | None -> ())
          done;
          !entries);
      targets = board.n;
      watch = (fun f -> board.watchers <- board.watchers @ [ f ]);
    }
  in
  Scan_rounds.behavior ~board:scan_board ?scan_delay app

(* Tests for the shared-memory-with-ACL substrate: SWMR registers, sticky
   bits, PEATS tuple spaces, and the ACL machinery that keeps Byzantine
   processes out of other processes' objects. *)

let qcheck = QCheck_alcotest.to_alcotest

let keyring () = Thc_crypto.Keyring.create (Thc_util.Rng.create 31L) ~n:4

let ident k pid = Thc_crypto.Keyring.secret k ~pid

(* --- ACL --------------------------------------------------------------------- *)

let test_acl_only () =
  let acl = Thc_sharedmem.Acl.only 1 in
  Alcotest.(check bool) "owner allowed" true
    (Thc_sharedmem.Acl.allows acl ~pid:1 ~op:"write");
  Alcotest.(check bool) "other denied" false
    (Thc_sharedmem.Acl.allows acl ~pid:2 ~op:"write")

let test_acl_members () =
  let acl = Thc_sharedmem.Acl.members [ 0; 2 ] in
  Alcotest.(check bool) "member" true (Thc_sharedmem.Acl.allows acl ~pid:2 ~op:"x");
  Alcotest.(check bool) "non-member" false (Thc_sharedmem.Acl.allows acl ~pid:1 ~op:"x")

let test_acl_any () =
  Alcotest.(check bool) "anyone" true
    (Thc_sharedmem.Acl.allows Thc_sharedmem.Acl.any ~pid:3 ~op:"x")

let test_acl_pred_sees_op () =
  let acl = Thc_sharedmem.Acl.pred (fun ~pid:_ ~op -> String.equal op "read") in
  Alcotest.(check bool) "read ok" true (Thc_sharedmem.Acl.allows acl ~pid:0 ~op:"read");
  Alcotest.(check bool) "write denied" false
    (Thc_sharedmem.Acl.allows acl ~pid:0 ~op:"write")

let test_acl_enforce () =
  let k = keyring () in
  let acl = Thc_sharedmem.Acl.only 1 in
  Alcotest.(check int) "enforce returns authenticated pid" 1
    (Thc_sharedmem.Acl.enforce acl ~ident:(ident k 1) ~op:"w");
  match Thc_sharedmem.Acl.enforce acl ~ident:(ident k 2) ~op:"w" with
  | _ -> Alcotest.fail "expected violation"
  | exception Thc_sharedmem.Acl.Violation _ -> ()

(* --- SWMR ---------------------------------------------------------------------- *)

let test_swmr_owner_writes () =
  let k = keyring () in
  let r = Thc_sharedmem.Swmr.create ~owner:0 ~init:"initial" in
  Alcotest.(check string) "initial readable" "initial" (Thc_sharedmem.Swmr.read r);
  Thc_sharedmem.Swmr.write r ~ident:(ident k 0) "updated";
  Alcotest.(check string) "updated" "updated" (Thc_sharedmem.Swmr.read r);
  Alcotest.(check int) "write count" 1 (Thc_sharedmem.Swmr.write_count r)

let test_swmr_non_owner_rejected () =
  let k = keyring () in
  let r = Thc_sharedmem.Swmr.create ~owner:0 ~init:0 in
  match Thc_sharedmem.Swmr.write r ~ident:(ident k 1) 1 with
  | () -> Alcotest.fail "non-owner write accepted"
  | exception Thc_sharedmem.Acl.Violation _ ->
    Alcotest.(check int) "value unchanged" 0 (Thc_sharedmem.Swmr.read r)

let test_swmr_log_append_order () =
  let k = keyring () in
  let l = Thc_sharedmem.Swmr.create_log ~owner:2 in
  List.iter (Thc_sharedmem.Swmr.append l ~ident:(ident k 2)) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "entries oldest first" [ "a"; "b"; "c" ]
    (Thc_sharedmem.Swmr.entries l)

let test_swmr_array_layout () =
  let a = Thc_sharedmem.Swmr.array ~n:3 ~init:(fun i -> i * 10) in
  Alcotest.(check int) "owners by index" 2 (Thc_sharedmem.Swmr.owner a.(2));
  Alcotest.(check int) "per-slot init" 20 (Thc_sharedmem.Swmr.read a.(2))

let prop_swmr_log_preserves_sequence =
  QCheck.Test.make ~name:"log preserves the append sequence" ~count:200
    QCheck.(list small_string)
    (fun entries ->
      let k = keyring () in
      let l = Thc_sharedmem.Swmr.create_log ~owner:1 in
      List.iter (Thc_sharedmem.Swmr.append l ~ident:(ident k 1)) entries;
      Thc_sharedmem.Swmr.entries l = entries)

let test_log_array_non_owner_append () =
  let k = keyring () in
  let a = Thc_sharedmem.Swmr.log_array ~n:3 in
  Thc_sharedmem.Swmr.append a.(1) ~ident:(ident k 1) "mine";
  match Thc_sharedmem.Swmr.append a.(1) ~ident:(ident k 2) "forged" with
  | () -> Alcotest.fail "non-owner append accepted"
  | exception Thc_sharedmem.Acl.Violation _ ->
    Alcotest.(check (list string)) "register untouched" [ "mine" ]
      (Thc_sharedmem.Swmr.entries a.(1))

let test_swmr_write_count_monotone () =
  let k = keyring () in
  let l = Thc_sharedmem.Swmr.create_log ~owner:0 in
  let counts = ref [ Thc_sharedmem.Swmr.write_count l ] in
  let tick () = counts := Thc_sharedmem.Swmr.write_count l :: !counts in
  Thc_sharedmem.Swmr.append l ~ident:(ident k 0) "a";
  tick ();
  (* A denied append must not tick the linearization counter. *)
  (try Thc_sharedmem.Swmr.append l ~ident:(ident k 3) "x"
   with Thc_sharedmem.Acl.Violation _ -> ());
  tick ();
  Thc_sharedmem.Swmr.write l ~ident:(ident k 0) [];
  tick ();
  Thc_sharedmem.Swmr.append l ~ident:(ident k 0) "b";
  tick ();
  Alcotest.(check (list int)) "one tick per successful op, denial ticks none"
    [ 3; 2; 1; 1; 0 ] !counts

let test_log_array_interleaved_oldest_first () =
  let k = keyring () in
  let a = Thc_sharedmem.Swmr.log_array ~n:2 in
  (* Interleave appends across owners: each register sees only its own
     stream, in order, oldest first. *)
  List.iter
    (fun (owner, v) -> Thc_sharedmem.Swmr.append a.(owner) ~ident:(ident k owner) v)
    [ (0, "a0"); (1, "b0"); (0, "a1"); (1, "b1"); (0, "a2") ];
  Alcotest.(check (list string)) "owner 0 stream" [ "a0"; "a1"; "a2" ]
    (Thc_sharedmem.Swmr.entries a.(0));
  Alcotest.(check (list string)) "owner 1 stream" [ "b0"; "b1" ]
    (Thc_sharedmem.Swmr.entries a.(1))

let test_swmr_ledger_accounting () =
  let k = keyring () in
  let a = Thc_sharedmem.Swmr.log_array ~n:2 in
  let ledger = Thc_obsv.Ledger.create () in
  Thc_sharedmem.Swmr.attach_ledger_all a ledger;
  Thc_sharedmem.Swmr.append a.(0) ~ident:(ident k 0) "x";
  Thc_sharedmem.Swmr.append a.(0) ~ident:(ident k 0) "y";
  ignore (Thc_sharedmem.Swmr.read a.(0));
  ignore (Thc_sharedmem.Swmr.read a.(1));
  ignore (Thc_sharedmem.Swmr.read a.(1));
  ignore (Thc_sharedmem.Swmr.read a.(1));
  Thc_sharedmem.Swmr.write a.(1) ~ident:(ident k 1) [ "w" ];
  Alcotest.(check int) "appends charged" 2
    (Thc_obsv.Ledger.count ledger "swmr.append");
  Alcotest.(check int) "reads charged" 4
    (Thc_obsv.Ledger.count ledger "swmr.read");
  Alcotest.(check int) "writes charged" 1
    (Thc_obsv.Ledger.count ledger "swmr.write");
  Alcotest.(check int) "no rejections yet" 0 (Thc_obsv.Ledger.rejections ledger)

let test_swmr_ledger_denials_are_rejections () =
  let k = keyring () in
  let a = Thc_sharedmem.Swmr.log_array ~n:2 in
  let ledger = Thc_obsv.Ledger.create () in
  Thc_sharedmem.Swmr.attach_ledger_all a ledger;
  (try Thc_sharedmem.Swmr.append a.(0) ~ident:(ident k 1) "forged"
   with Thc_sharedmem.Acl.Violation _ -> ());
  (try Thc_sharedmem.Swmr.write a.(1) ~ident:(ident k 0) []
   with Thc_sharedmem.Acl.Violation _ -> ());
  Alcotest.(check int) "append denial labelled" 1
    (Thc_obsv.Ledger.count ledger "swmr.append_denied");
  Alcotest.(check int) "write denial labelled" 1
    (Thc_obsv.Ledger.count ledger "swmr.write_denied");
  Alcotest.(check int) "denials count as rejections" 2
    (Thc_obsv.Ledger.rejections ledger);
  Alcotest.(check int) "nothing charged as a successful op" 0
    (Thc_obsv.Ledger.count ledger "swmr.append"
    + Thc_obsv.Ledger.count ledger "swmr.write")

(* --- sticky ---------------------------------------------------------------------- *)

let test_sticky_first_write_wins () =
  let k = keyring () in
  let s = Thc_sharedmem.Sticky.create () in
  Alcotest.(check bool) "starts unset" false (Thc_sharedmem.Sticky.is_set s);
  (match Thc_sharedmem.Sticky.set s ~ident:(ident k 0) "first" with
  | `Set -> ()
  | `Already -> Alcotest.fail "fresh set reported Already");
  (match Thc_sharedmem.Sticky.set s ~ident:(ident k 1) "second" with
  | `Already -> ()
  | `Set -> Alcotest.fail "second set accepted");
  Alcotest.(check (option string)) "value stuck" (Some "first")
    (Thc_sharedmem.Sticky.get s)

let test_sticky_acl () =
  let k = keyring () in
  let s = Thc_sharedmem.Sticky.create ~write_acl:(Thc_sharedmem.Acl.only 2) () in
  (match Thc_sharedmem.Sticky.set s ~ident:(ident k 0) "x" with
  | _ -> Alcotest.fail "ACL not enforced"
  | exception Thc_sharedmem.Acl.Violation _ -> ());
  match Thc_sharedmem.Sticky.set s ~ident:(ident k 2) "x" with
  | `Set -> ()
  | `Already -> Alcotest.fail "owner write failed"

(* --- PEATS ---------------------------------------------------------------------- *)

let owned_space () =
  Thc_sharedmem.Peats.create ~policy:Thc_sharedmem.Peats.owned_field_policy

let test_peats_out_rd () =
  let k = keyring () in
  let s = owned_space () in
  Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "1"; "r1"; "hello" |];
  Alcotest.(check int) "size" 1 (Thc_sharedmem.Peats.size s);
  match
    Thc_sharedmem.Peats.rd s ~ident:(ident k 2) [| Some "1"; None; None |]
  with
  | Some [| "1"; "r1"; "hello" |] -> ()
  | Some _ | None -> Alcotest.fail "rd did not find the tuple"

let test_peats_owner_policy () =
  let k = keyring () in
  let s = owned_space () in
  (* p2 cannot insert a tuple claiming to be p1's. *)
  match Thc_sharedmem.Peats.out s ~ident:(ident k 2) [| "1"; "r1"; "spoof" |] with
  | () -> Alcotest.fail "spoofed owner accepted"
  | exception Thc_sharedmem.Acl.Violation _ -> ()

let test_peats_inp_denied_by_owner_policy () =
  let k = keyring () in
  let s = owned_space () in
  Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "1"; "r1"; "x" |];
  match Thc_sharedmem.Peats.inp s ~ident:(ident k 1) [| Some "1"; None; None |] with
  | _ -> Alcotest.fail "removal should be denied"
  | exception Thc_sharedmem.Acl.Violation _ -> ()

let test_peats_rd_all_order () =
  let k = keyring () in
  let s = owned_space () in
  Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "1"; "r1"; "a" |];
  Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "1"; "r2"; "b" |];
  Thc_sharedmem.Peats.out s ~ident:(ident k 2) [| "2"; "r1"; "c" |];
  let mine =
    Thc_sharedmem.Peats.rd_all s ~ident:(ident k 3) [| Some "1"; None; None |]
  in
  Alcotest.(check int) "two of p1's tuples" 2 (List.length mine);
  (match mine with
  | [ [| _; r1; _ |]; [| _; r2; _ |] ] ->
    Alcotest.(check (pair string string)) "oldest first" ("r1", "r2") (r1, r2)
  | _ -> Alcotest.fail "unexpected rd_all shape")

let test_peats_append_once_policy () =
  let k = keyring () in
  let s =
    Thc_sharedmem.Peats.create ~policy:Thc_sharedmem.Peats.append_once_policy
  in
  Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "1"; "r1"; "v" |];
  (* Re-inserting at the same (owner, key) is a state-dependent denial. *)
  (match Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "1"; "r1"; "v2" |] with
  | () -> Alcotest.fail "duplicate key accepted"
  | exception Thc_sharedmem.Acl.Violation _ -> ());
  (* A different key is fine. *)
  Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "1"; "r2"; "v2" |];
  Alcotest.(check int) "two tuples" 2 (Thc_sharedmem.Peats.size s)

let test_peats_matching () =
  let t = [| "a"; "b"; "c" |] in
  Alcotest.(check bool) "wildcards" true
    (Thc_sharedmem.Peats.matches [| None; None; None |] t);
  Alcotest.(check bool) "exact" true
    (Thc_sharedmem.Peats.matches [| Some "a"; Some "b"; Some "c" |] t);
  Alcotest.(check bool) "mismatch" false
    (Thc_sharedmem.Peats.matches [| Some "x"; None; None |] t);
  Alcotest.(check bool) "arity" false (Thc_sharedmem.Peats.matches [| None |] t)

let test_peats_inp_removes_oldest () =
  let k = keyring () in
  let s =
    Thc_sharedmem.Peats.create ~policy:(fun ~pid:_ ~op:_ ~space:_ -> true)
  in
  Thc_sharedmem.Peats.out s ~ident:(ident k 0) [| "0"; "1"; "old" |];
  Thc_sharedmem.Peats.out s ~ident:(ident k 0) [| "0"; "2"; "new" |];
  (match Thc_sharedmem.Peats.inp s ~ident:(ident k 0) [| Some "0"; None; None |] with
  | Some [| _; _; v |] -> Alcotest.(check string) "oldest removed" "old" v
  | Some _ | None -> Alcotest.fail "inp failed");
  Alcotest.(check int) "one left" 1 (Thc_sharedmem.Peats.size s)

let prop_peats_rd_finds_inserted =
  QCheck.Test.make ~name:"rd finds every inserted tuple by exact pattern"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair small_string small_string))
    (fun fields ->
      let k = keyring () in
      let s =
        Thc_sharedmem.Peats.create ~policy:(fun ~pid:_ ~op:_ ~space:_ -> true)
      in
      List.iter
        (fun (a, b) -> Thc_sharedmem.Peats.out s ~ident:(ident k 0) [| a; b |])
        fields;
      List.for_all
        (fun (a, b) ->
          Thc_sharedmem.Peats.rd s ~ident:(ident k 1) [| Some a; Some b |]
          <> None)
        fields)

(* --- change watchers (what parks and wakes shared-memory round readers) --- *)

(* [calls] records watcher firings, newest first. *)
let watcher calls name () = calls := name :: !calls

let denied f = try f () with Thc_sharedmem.Acl.Violation _ -> ()

let test_swmr_on_change () =
  let k = keyring () in
  let r = Thc_sharedmem.Swmr.create_log ~owner:0 in
  let calls = ref [] in
  Thc_sharedmem.Swmr.on_change r (watcher calls "a");
  Thc_sharedmem.Swmr.on_change r (watcher calls "b");
  Thc_sharedmem.Swmr.append r ~ident:(ident k 0) 1;
  Alcotest.(check (list string)) "append fires all, in registration order"
    [ "b"; "a" ] !calls;
  denied (fun () -> Thc_sharedmem.Swmr.append r ~ident:(ident k 1) 2);
  Alcotest.(check int) "a denied append fires nothing" 2 (List.length !calls);
  Thc_sharedmem.Swmr.write r ~ident:(ident k 0) [ 3 ];
  Alcotest.(check int) "write fires" 4 (List.length !calls);
  ignore (Thc_sharedmem.Swmr.read r : int list);
  Alcotest.(check int) "a read fires nothing" 4 (List.length !calls)

let test_sticky_on_change () =
  let k = keyring () in
  let c = Thc_sharedmem.Sticky.create ~write_acl:(Thc_sharedmem.Acl.only 0) () in
  let calls = ref [] in
  Thc_sharedmem.Sticky.on_change c (watcher calls "w");
  denied (fun () -> ignore (Thc_sharedmem.Sticky.set c ~ident:(ident k 1) "x"));
  Alcotest.(check int) "denied set fires nothing" 0 (List.length !calls);
  ignore (Thc_sharedmem.Sticky.set c ~ident:(ident k 0) "x");
  ignore (Thc_sharedmem.Sticky.set c ~ident:(ident k 0) "y");
  Alcotest.(check int) "only the sticking set fires" 1 (List.length !calls)

let test_peats_on_change () =
  let k = keyring () in
  let s = owned_space () in
  let calls = ref [] in
  Thc_sharedmem.Peats.on_change s (watcher calls "w");
  Thc_sharedmem.Peats.out s ~ident:(ident k 0) [| "0"; "v" |];
  denied (fun () -> Thc_sharedmem.Peats.out s ~ident:(ident k 1) [| "0"; "spoof" |]);
  ignore (Thc_sharedmem.Peats.rd_all s ~ident:(ident k 1) [| None; None |]);
  Alcotest.(check int) "out fires; denied out and reads do not" 1
    (List.length !calls);
  let open_space =
    Thc_sharedmem.Peats.create ~policy:(fun ~pid:_ ~op:_ ~space:_ -> true)
  in
  Thc_sharedmem.Peats.on_change open_space (watcher calls "open");
  ignore (Thc_sharedmem.Peats.inp open_space ~ident:(ident k 0) [| None |]);
  Alcotest.(check int) "inp that removes nothing fires nothing" 1
    (List.length !calls);
  Thc_sharedmem.Peats.out open_space ~ident:(ident k 0) [| "t" |];
  ignore (Thc_sharedmem.Peats.inp open_space ~ident:(ident k 0) [| None |]);
  Alcotest.(check int) "out and removing inp fire" 3 (List.length !calls)

let () =
  Alcotest.run "thc_sharedmem"
    [
      ( "acl",
        [
          Alcotest.test_case "only" `Quick test_acl_only;
          Alcotest.test_case "members" `Quick test_acl_members;
          Alcotest.test_case "any" `Quick test_acl_any;
          Alcotest.test_case "pred sees op" `Quick test_acl_pred_sees_op;
          Alcotest.test_case "enforce" `Quick test_acl_enforce;
        ] );
      ( "swmr",
        [
          Alcotest.test_case "owner writes" `Quick test_swmr_owner_writes;
          Alcotest.test_case "non-owner rejected" `Quick test_swmr_non_owner_rejected;
          Alcotest.test_case "log order" `Quick test_swmr_log_append_order;
          Alcotest.test_case "array layout" `Quick test_swmr_array_layout;
          Alcotest.test_case "log_array non-owner append"
            `Quick test_log_array_non_owner_append;
          Alcotest.test_case "write_count monotone"
            `Quick test_swmr_write_count_monotone;
          Alcotest.test_case "interleaved logs oldest first"
            `Quick test_log_array_interleaved_oldest_first;
          Alcotest.test_case "ledger accounting" `Quick test_swmr_ledger_accounting;
          Alcotest.test_case "ledger denials"
            `Quick test_swmr_ledger_denials_are_rejections;
          qcheck prop_swmr_log_preserves_sequence;
          Alcotest.test_case "on_change" `Quick test_swmr_on_change;
        ] );
      ( "sticky",
        [
          Alcotest.test_case "first write wins" `Quick test_sticky_first_write_wins;
          Alcotest.test_case "acl" `Quick test_sticky_acl;
          Alcotest.test_case "on_change" `Quick test_sticky_on_change;
        ] );
      ( "peats",
        [
          Alcotest.test_case "out/rd" `Quick test_peats_out_rd;
          Alcotest.test_case "owner policy" `Quick test_peats_owner_policy;
          Alcotest.test_case "inp denied" `Quick test_peats_inp_denied_by_owner_policy;
          Alcotest.test_case "rd_all order" `Quick test_peats_rd_all_order;
          Alcotest.test_case "append-once policy" `Quick test_peats_append_once_policy;
          Alcotest.test_case "matching" `Quick test_peats_matching;
          Alcotest.test_case "inp removes oldest" `Quick test_peats_inp_removes_oldest;
          qcheck prop_peats_rd_finds_inserted;
          Alcotest.test_case "on_change" `Quick test_peats_on_change;
        ] );
    ]

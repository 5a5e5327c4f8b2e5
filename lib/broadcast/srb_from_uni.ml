type val_msg = { k : int; value : string; ssig : Thc_crypto.Signature.t }

type copy_msg = { cv : val_msg; by : Thc_crypto.Signature.t }

type l1_msg = {
  l1k : int;
  l1value : string;
  copies : copy_msg list;
  l1by : Thc_crypto.Signature.t;
}

type l2_msg = {
  l2k : int;
  l2value : string;
  proofs : l1_msg list;
  l2by : Thc_crypto.Signature.t;
}

type item = Val of val_msg | Copy of copy_msg | L1 of l1_msg | L2 of l2_msg

type phase = Await_val | Await_copies | Await_l1s

type t = {
  keyring : Thc_crypto.Keyring.t;
  ident : Thc_crypto.Keyring.secret;
  sender : int;
  faults : int;
  self : int;
  mutable next : int;  (* next sequence number to deliver (the paper's next_p) *)
  mutable phase : phase;
  mutable my_val : val_msg option;  (* adopted value for index [next] *)
  mutable conflict : bool;  (* sender equivocation witnessed for [next] *)
  copies : (int, copy_msg) Hashtbl.t;  (* by copier, matching my_val *)
  l1s : (int, l1_msg) Hashtbl.t;  (* by creator, matching my_val *)
  val_buffer : (int, val_msg) Hashtbl.t;  (* first adopted value per k *)
  conflict_k : (int, unit) Hashtbl.t;  (* ks with witnessed equivocation *)
  l2_store : (int, l2_msg) Hashtbl.t;  (* first valid L2 per k *)
  mutable outbox : item list;  (* forwards riding the next advance *)
  queue : string Queue.t;  (* sender: values not yet scheduled, FIFO *)
  mutable scheduled : int;  (* sender: number of values entered in schedule *)
  mutable deliveries : (int * string) list;  (* newest first *)
}

let create ~keyring ~ident ~sender ~faults =
  {
    keyring;
    ident;
    sender;
    faults;
    self = Thc_crypto.Keyring.pid_of_secret ident;
    next = 1;
    phase = Await_val;
    my_val = None;
    conflict = false;
    copies = Hashtbl.create 16;
    l1s = Hashtbl.create 16;
    val_buffer = Hashtbl.create 16;
    conflict_k = Hashtbl.create 4;
    l2_store = Hashtbl.create 16;
    outbox = [];
    queue = Queue.create ();
    scheduled = 0;
    deliveries = [];
  }

let broadcast t value = Queue.push value t.queue

let delivered t = List.rev t.deliveries

(* Round schedule: value round, copy round, L1 round for index k. *)
let val_round k = (3 * k) - 2

let copy_round k = (3 * k) - 1

let l1_round k = 3 * k

(* --- validation ------------------------------------------------------- *)

let val_ok t (v : val_msg) =
  v.ssig.signer = t.sender
  && Thc_crypto.Signature.verify_value t.keyring v.ssig (v.k, v.value)

let copy_ok t (c : copy_msg) =
  val_ok t c.cv
  && Thc_crypto.Signature.verify_value t.keyring c.by
       ("copy", c.cv.k, c.cv.value)

let distinct_signers sigs =
  List.sort_uniq compare (List.map (fun (s : Thc_crypto.Signature.t) -> s.signer) sigs)

let l1_ok t (p : l1_msg) =
  Thc_crypto.Signature.verify_value t.keyring p.l1by
    ("l1", p.l1k, p.l1value, Thc_crypto.Digest.of_value p.copies)
  &&
  let good =
    List.filter
      (fun (c : copy_msg) ->
        c.cv.k = p.l1k && String.equal c.cv.value p.l1value && copy_ok t c)
      p.copies
  in
  List.length (distinct_signers (List.map (fun c -> c.by) good)) >= t.faults + 1

let l2_ok t (p : l2_msg) =
  Thc_crypto.Signature.verify_value t.keyring p.l2by
    ("l2", p.l2k, p.l2value, Thc_crypto.Digest.of_value p.proofs)
  &&
  let good =
    List.filter
      (fun (q : l1_msg) ->
        q.l1k = p.l2k && String.equal q.l1value p.l2value && l1_ok t q)
      p.proofs
  in
  List.length (distinct_signers (List.map (fun q -> q.l1by) good))
  >= t.faults + 1

(* --- state updates on incoming items ----------------------------------- *)

(* Witnessing a sender-signed value for index k: adopt the first, flag any
   conflicting second. *)
let witness_val t (v : val_msg) =
  if val_ok t v then begin
    match Hashtbl.find_opt t.val_buffer v.k with
    | None -> Hashtbl.replace t.val_buffer v.k v
    | Some first ->
      if not (String.equal first.value v.value) then
        Hashtbl.replace t.conflict_k v.k ()
  end

(* Re-sync the per-index working state from the buffers (called when [next]
   or the buffers change). *)
let refresh t =
  (match t.my_val with
  | None ->
    (match Hashtbl.find_opt t.val_buffer t.next with
    | Some v -> t.my_val <- Some v
    | None -> ())
  | Some _ -> ());
  if Hashtbl.mem t.conflict_k t.next then t.conflict <- true

let matches_mine t ~k ~value =
  k = t.next
  && match t.my_val with Some v -> String.equal v.value value | None -> false

let absorb_item t (it : item) =
  match it with
  | Val v -> witness_val t v
  | Copy c ->
    if copy_ok t c then begin
      (* Adopt before matching: the sender's own payload is [Val v; Copy c],
         and a receiver that learns [v] from it must keep that copy. *)
      witness_val t c.cv;
      refresh t;
      if matches_mine t ~k:c.cv.k ~value:c.cv.value then
        if not (Hashtbl.mem t.copies c.by.signer) then
          Hashtbl.replace t.copies c.by.signer c
    end
  | L1 p ->
    if l1_ok t p then begin
      List.iter (fun (c : copy_msg) -> witness_val t c.cv) p.copies;
      refresh t;
      if matches_mine t ~k:p.l1k ~value:p.l1value then
        if not (Hashtbl.mem t.l1s p.l1by.signer) then
          Hashtbl.replace t.l1s p.l1by.signer p
    end
  | L2 p ->
    if (not (Hashtbl.mem t.l2_store p.l2k)) && l2_ok t p then
      Hashtbl.replace t.l2_store p.l2k p

(* --- delivery ----------------------------------------------------------- *)

let reset_index_state t =
  t.my_val <- None;
  t.conflict <- false;
  Hashtbl.reset t.copies;
  Hashtbl.reset t.l1s

let rec maybe_deliver t (h : Thc_rounds.Round_app.handle) =
  match Hashtbl.find_opt t.l2_store t.next with
  | None -> ()
  | Some l2 ->
    t.deliveries <- (t.next, l2.l2value) :: t.deliveries;
    h.output
      (Thc_sim.Obs.Srb_delivered
         { sender = t.sender; seq = t.next; value = l2.l2value });
    t.outbox <- L2 l2 :: t.outbox;
    t.next <- t.next + 1;
    t.phase <- Await_val;
    reset_index_state t;
    refresh t;
    maybe_deliver t h

(* --- the round app ------------------------------------------------------ *)

let encode_items items = Thc_util.Codec.encode (items : item list)

let decode_items payload =
  match (Thc_util.Codec.decode payload : item list) with
  | items -> items
  | exception _ -> []

let take_outbox t =
  let items = t.outbox in
  t.outbox <- [];
  items

(* Advance with the given role items plus any queued forwards. *)
let advance t items =
  match items @ take_outbox t with
  | [] -> Thc_rounds.Round_app.Advance None
  | payload -> Thc_rounds.Round_app.Advance (Some (encode_items payload))

let make_copy t (v : val_msg) =
  {
    cv = v;
    by = Thc_crypto.Signature.sign_value t.ident ("copy", v.k, v.value);
  }

let on_round_check t (h : Thc_rounds.Round_app.handle) ~round =
  refresh t;
  maybe_deliver t h;
  let k = t.next in
  match t.phase with
  | Await_val ->
    if round < val_round k then advance t []
    else begin
      (* Sitting in the value round of k. *)
      if t.self = t.sender && t.my_val = None && t.scheduled < k then begin
        match Queue.take_opt t.queue with
        | None -> ()
        | Some value ->
          t.scheduled <- t.scheduled + 1;
          assert (t.scheduled = k);
          let v =
            {
              k;
              value;
              ssig = Thc_crypto.Signature.sign_value t.ident (k, value);
            }
          in
          h.output (Thc_sim.Obs.Srb_broadcast { seq = k; value });
          witness_val t v;
          refresh t
      end;
      match t.my_val with
      | None -> Thc_rounds.Round_app.Hold
      | Some v ->
        (* Enter the copy round, sending (for the sender) the value itself
           and (for everyone) the signed copy. *)
        let copy = make_copy t v in
        Hashtbl.replace t.copies t.self copy;
        t.phase <- Await_copies;
        let role = if t.self = t.sender then [ Val v; Copy copy ] else [ Copy copy ] in
        advance t role
    end
  | Await_copies ->
    if round < copy_round k then advance t []
    else if t.conflict then Thc_rounds.Round_app.Hold
    else if Hashtbl.length t.copies >= t.faults + 1 then begin
      match t.my_val with
      | None -> Thc_rounds.Round_app.Hold
      | Some v ->
        let copies = Hashtbl.fold (fun _ c acc -> c :: acc) t.copies [] in
        let l1 =
          {
            l1k = k;
            l1value = v.value;
            copies;
            l1by =
              Thc_crypto.Signature.sign_value t.ident
                ("l1", k, v.value, Thc_crypto.Digest.of_value copies);
          }
        in
        Hashtbl.replace t.l1s t.self l1;
        t.phase <- Await_l1s;
        advance t [ L1 l1 ]
    end
    else Thc_rounds.Round_app.Hold
  | Await_l1s ->
    if round < l1_round k then advance t []
    else if t.conflict then Thc_rounds.Round_app.Hold
    else if Hashtbl.length t.l1s >= t.faults + 1 then begin
      match t.my_val with
      | None -> Thc_rounds.Round_app.Hold
      | Some v ->
        let proofs = Hashtbl.fold (fun _ p acc -> p :: acc) t.l1s [] in
        let l2 =
          {
            l2k = k;
            l2value = v.value;
            proofs;
            l2by =
              Thc_crypto.Signature.sign_value t.ident
                ("l2", k, v.value, Thc_crypto.Digest.of_value proofs);
          }
        in
        if not (Hashtbl.mem t.l2_store k) then Hashtbl.replace t.l2_store k l2;
        (* Delivery queues the L2 forward into the outbox, so it is sent
           exactly once on this advance. *)
        maybe_deliver t h;
        advance t []
    end
    else Thc_rounds.Round_app.Hold

let app t : Thc_rounds.Round_app.app =
  {
    first_payload = (fun _ -> None);
    on_receive =
      (fun _ ~round:_ ~from:_ payload ->
        List.iter (absorb_item t) (decode_items payload);
        refresh t);
    on_round_check = (fun h ~round -> on_round_check t h ~round);
  }

let equivocation_payloads ~ident ~k v1 v2 =
  let mk value =
    let v = { k; value; ssig = Thc_crypto.Signature.sign_value ident (k, value) } in
    encode_items [ Val v; Copy { cv = v; by = Thc_crypto.Signature.sign_value ident ("copy", k, value) } ]
  in
  (mk v1, mk v2)

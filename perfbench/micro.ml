(* Microbenchmarks of the trusted-hardware, crypto, shared-memory and
   event-queue primitives, through their public functions.  Each cost is
   the median of five timed batches, in ns per operation. *)

type costs = {
  attest_ns : float;
  check_ns : float;
  sign_ns : float;
  verify_ns : float;
  append_ns : float;
  read_ns : float;
  queue_ns : float;  (** One pop plus one push at the given depth. *)
}

let iters = 20_000

let per_op f =
  Stats.median
    (List.init 5 (fun _ ->
         let t0 = Clock.now_ns () in
         for i = 1 to iters do
           f i
         done;
         float_of_int (Clock.now_ns () - t0) /. float_of_int iters))

let message = String.make 64 'm'

let run ~queue_depth =
  let rng = Thc_util.Rng.create 7L in
  let world = Thc_hardware.Trinc.create_world rng ~n:1 in
  let trinket = Thc_hardware.Trinc.trinket world ~owner:0 in
  let counter = ref 0 in
  let attest_ns =
    per_op (fun _ ->
        incr counter;
        ignore (Thc_hardware.Trinc.attest trinket ~counter:!counter ~message))
  in
  let att =
    incr counter;
    Option.get (Thc_hardware.Trinc.attest trinket ~counter:!counter ~message)
  in
  let check_ns = per_op (fun _ -> ignore (Thc_hardware.Trinc.check world att ~id:0)) in
  let keyring = Thc_crypto.Keyring.create rng ~n:1 in
  let secret = Thc_crypto.Keyring.secret keyring ~pid:0 in
  let signature = Thc_crypto.Signature.sign secret message in
  let sign_ns = per_op (fun _ -> ignore (Thc_crypto.Signature.sign secret message)) in
  let verify_ns =
    per_op (fun _ -> ignore (Thc_crypto.Signature.verify keyring signature message))
  in
  let log = Thc_sharedmem.Swmr.create_log ~owner:0 in
  Thc_sharedmem.Swmr.attach_ledger log (Thc_obsv.Ledger.create ());
  let append_ns = per_op (fun i -> Thc_sharedmem.Swmr.append log ~ident:secret i) in
  let read_ns = per_op (fun _ -> ignore (Thc_sharedmem.Swmr.read log)) in
  let q = Thc_util.Calendar_queue.create ~null:0 () in
  let tie = ref 0 in
  let push time =
    incr tie;
    Thc_util.Calendar_queue.push q ~time ~tie:!tie 0
  in
  for _ = 1 to queue_depth do
    push (Thc_util.Rng.int rng 500)
  done;
  let queue_ns =
    per_op (fun _ ->
        match Thc_util.Calendar_queue.pop q with
        | Some (time, _, _) -> push (time + 50 + Thc_util.Rng.int rng 450)
        | None -> ())
  in
  { attest_ns; check_ns; sign_ns; verify_ns; append_ns; read_ns; queue_ns }

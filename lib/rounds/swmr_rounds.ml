let behavior ~registers ~ident ?scan_delay app =
  let board =
    {
      Scan_rounds.publish =
        (fun ~round ~payload ->
          let self = Thc_crypto.Keyring.pid_of_secret ident in
          Thc_sharedmem.Swmr.append registers.(self) ~ident (round, payload));
      read =
        (fun j ->
          List.map
            (fun (round, payload) -> (j, round, payload))
            (Thc_sharedmem.Swmr.entries registers.(j)));
      targets = Array.length registers;
      watch =
        (fun f -> Array.iter (fun r -> Thc_sharedmem.Swmr.on_change r f) registers);
    }
  in
  Scan_rounds.behavior ~board ?scan_delay app

type entry = {
  kind : string;
  doc : string;
  make : unit -> Cobra.Component.t;
}

let entry kind doc make = { kind; doc; make = (fun () -> make kind) }

let all =
  [
    entry "HBIM" "counter table indexed by PC/ghist/lhist/phist/hash/concat (gshare, gselect)"
      (fun name -> Hbim.make (Hbim.default ~name ~indexing:Indexing.(Hash [ Pc; Ghist 11 ])));
    entry "BTB" "set-associative branch target buffer, 2-cycle" (fun name ->
        Btb.make (Btb.default ~name));
    entry "UBTB" "small fully-associative micro-BTB, 1-cycle" (fun name ->
        Ubtb.make (Ubtb.default ~name));
    entry "GTAG" "partially-tagged global-history counter table" (fun name ->
        Gtag.make (Gtag.default ~name));
    entry "TAGE" "multi-table tagged geometric-history predictor" (fun name ->
        Tage.make (Tage.default ~name));
    entry "LOOP" "loop trip-count predictor with speculative counting + repair" (fun name ->
        Loop_pred.make (Loop_pred.default ~name));
    entry "TOURNEY" "tournament selector over two predict_in inputs" (fun name ->
        Tourney.make (Tourney.default ~name));
    entry "YAGS" "taken/not-taken exception caches (extension)" (fun name ->
        Yags.make (Yags.default ~name));
    entry "PERCEPTRON" "history-dot-weights predictor (extension)" (fun name ->
        Perceptron.make (Perceptron.default ~name));
    entry "GEHL" "geometric-history adder tree of signed counters, O-GEHL (extension)"
      (fun name -> Gehl.make (Gehl.default ~name));
    entry "ITTAGE" "tagged indirect-target predictor (extension)" (fun name ->
        Ittage.make (Ittage.default ~name));
    entry "SC" "statistical corrector (extension)" (fun name ->
        Statistical_corrector.make (Statistical_corrector.default ~name));
    entry "STATIC" "always-taken / BTFN static predictors" (fun name ->
        Static_pred.always ~name ~taken:true ~fetch_width:4 ());
  ]

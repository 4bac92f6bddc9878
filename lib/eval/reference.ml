type series = {
  system : string;
  mpki : (string * float) list;
  ipc : (string * float) list;
}

type table_1_row = { storage_kb : float; description : string list }

let table_1 =
  [
    ( "Tourney",
      {
        storage_kb = 6.8;
        description =
          [
            "32-bit global, 256x32-bit local histories";
            "2K-entry BTB w. 16K-entry 2-bit BHT";
            "1K tournament counters";
          ];
      } );
    ( "B2",
      {
        storage_kb = 6.5;
        description =
          [
            "16-bit global history";
            "2K partially tagged + 16K untagged counters";
            "2K-entry BTB";
          ];
      } );
    ( "TAGE-L",
      {
        storage_kb = 28.0;
        description =
          [
            "64-bit global history";
            "7 TAGE tables";
            "2K-entry BTB w. 32-entry uBTB";
            "256-entry loop predictor";
          ];
      } );
  ]

let benchmarks =
  [ "perlbench"; "gcc"; "mcf"; "omnetpp"; "xalancbmk"; "x264"; "deepsjeng"; "leela";
    "exchange2"; "xz" ]

(* Approximate read-offs from the paper's Fig 10 (server-class cores on
   native SPECint17 with reference inputs). *)
let skylake =
  {
    system = "Skylake";
    mpki =
      [
        ("perlbench", 1.0); ("gcc", 2.5); ("mcf", 8.0); ("omnetpp", 3.0);
        ("xalancbmk", 1.5); ("x264", 0.5); ("deepsjeng", 4.5); ("leela", 8.5);
        ("exchange2", 1.5); ("xz", 6.0);
      ];
    ipc =
      [
        ("perlbench", 2.2); ("gcc", 1.3); ("mcf", 0.6); ("omnetpp", 0.7);
        ("xalancbmk", 1.6); ("x264", 2.4); ("deepsjeng", 1.5); ("leela", 1.4);
        ("exchange2", 2.3); ("xz", 1.2);
      ];
  }

let graviton =
  {
    system = "Graviton";
    mpki =
      [
        ("perlbench", 1.5); ("gcc", 3.5); ("mcf", 10.0); ("omnetpp", 4.0);
        ("xalancbmk", 2.0); ("x264", 0.8); ("deepsjeng", 5.5); ("leela", 10.0);
        ("exchange2", 2.0); ("xz", 7.5);
      ];
    ipc =
      [
        ("perlbench", 1.3); ("gcc", 0.8); ("mcf", 0.35); ("omnetpp", 0.45);
        ("xalancbmk", 1.0); ("x264", 1.5); ("deepsjeng", 0.9); ("leela", 0.8);
        ("exchange2", 1.5); ("xz", 0.8);
      ];
  }

let paper_claims =
  [
    ("I-intro", "serializing fetch behind branches: -15% IPC on Dhrystone");
    ("VI-A", "3-cycle vs 2-cycle TAGE: accuracy unchanged, ~1% IPC degradation");
    ( "VI-B",
      "history repair with replay: +15% mean IPC, -25% mispredicts on SPECint; -3% IPC on \
       Dhrystone" );
    ("VI-C", "SFB optimisation: CoreMark 4.9 -> 6.1 CM/MHz, accuracy 97% -> 99.1%");
    ("Fig10", "TAGE-L most accurate; Tourney suffers aliasing (no tagged component)");
    ("Fig8", "tagged components (TAGE tables, BTB) dominate area; Meta non-trivial");
    ("Fig9", "even a large predictor is a small portion of a big out-of-order core");
  ]

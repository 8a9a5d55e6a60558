from qprob.cli import main
raise SystemExit(main())

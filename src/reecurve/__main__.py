from .commands import main

raise SystemExit(main())

"""End-to-end estimate benchmark of the DIPE reproduction (see ``README.md``)."""

import gc

from .cli import main


# the process entry of python -m nmems and the nmems script: the frozen
# start-up heap skips shutdown's four full collections (about 7 ms a command
# on a 2-vCPU host, 3 ms under python -S); cli.main itself never freezes
def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
